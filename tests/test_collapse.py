"""Collapse classification: limit kinds, focal dimensions, residuals."""

import math

import numpy as np
import pytest

from isoflow import (
    AnalysisIncompleteError,
    analyze,
    estimate_tstar,
    focal_dimension_expected,
    integrate,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    parallel_curvature,
    resolve_profile,
    sphere_family_from_kappa1,
    surface_from_dict,
    verification,
)
from isoflow.catalog import SPHERE
from isoflow.closed_form import ClosedFormProfile


def closed_report(surface):
    return analyze(surface, resolve_profile(surface))


class TestPointCollapse:
    def test_euclidean_sphere(self):
        report = closed_report(make_euclidean_cylinder(2, 2, 1.0))
        assert report.limit_kind == "point"
        assert report.t_star == pytest.approx(0.25)
        assert report.focal_dimension == 0
        assert report.degenerate_block_index == 0

    def test_umbilic_families(self):
        for surface in (make_sphere_umbilic(2, 1.0), make_hyperbolic_umbilic(2, 2.0)):
            report = closed_report(surface)
            assert report.limit_kind == "point"
            assert math.isfinite(report.t_star)


class TestFocalCollapse:
    def test_euclidean_cylinder_axis(self):
        report = closed_report(make_euclidean_cylinder(1, 3, 1.0))
        assert report.limit_kind == "focal_submanifold"
        assert report.focal_dimension == 2  # an (n-m)-plane
        assert report.degenerate_block_index == 0

    def test_g4_dimension(self):
        report = closed_report(sphere_family_from_kappa1(4, 3.0))
        assert report.focal_dimension == 3  # m1 + 2 m2 = n - m1

    def test_hyperbolic_cylinder(self):
        report = closed_report(make_hyperbolic_cylinder(2, 3, 3.0))
        assert report.focal_dimension == 3  # m2

    def test_both_engines_report_the_orientation_of_the_surface(self):
        # H(0) < 0 flips the orientation whichever engine gave the profile.
        flipped = [(label, s) for label, s in verification.builtin_grid()
                   if not s.is_minimal and s.mean_curvature_at_zero < 0]
        assert len(flipped) > 5
        for label, surface in flipped:
            numeric = estimate_tstar(surface, full_output=True)[2]
            for profile in (resolve_profile(surface), numeric):
                assert analyze(surface, profile).orientation_flipped, label

    def test_flipped_surface_degenerates_last_block(self):
        surface = sphere_family_from_kappa1(4, 2.0)  # mean curvature < 0
        report = closed_report(surface)
        assert report.orientation_flipped
        assert report.degenerate_block_index == len(surface.blocks) - 1
        assert report.focal_dimension == surface.n - surface.blocks[-1].mult


class TestEternalAndGeodesic:
    def test_horosphere_eternal(self):
        surface = make_horosphere(3, 1.0)
        report = closed_report(surface)
        assert report.limit_kind == "eternal"
        assert report.t_star == math.inf
        assert report.focal_dimension is None
        # curvature stays at kappa along the whole flow
        prof = resolve_profile(surface)
        for t in (1.0, 10.0, 50.0):
            assert parallel_curvature(surface.space_form, 1.0, prof.xi(t)) == 1.0

    def test_small_kappa_umbilic_geodesic_limit(self):
        report = closed_report(make_hyperbolic_umbilic(2, 0.5))
        assert report.limit_kind == "totally_geodesic_limit"
        assert report.t_star == math.inf

    def test_minimal_eternal(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        assert closed_report(clifford).limit_kind == "eternal"


class TestNumericProfiles:
    def test_numeric_point_collapse(self):
        surface = make_sphere_umbilic(2, 1.0)
        prof = integrate(surface, 0.5)
        assert math.isfinite(prof.t_star)
        report = analyze(surface, prof)
        assert report.limit_kind == "point"
        assert report.t_star == pytest.approx(math.log(2.0) / 4.0, abs=1e-8)

    def test_numeric_eternal(self):
        surface = make_horosphere(2, 1.0)
        prof = integrate(surface, 50.0)
        assert analyze(surface, prof).limit_kind == "eternal"

    def test_limit_read_is_clamped_to_the_domain_of_either_profile_kind(self, monkeypatch):
        # An eternal flow's limit is read at ETERNAL_CHECK_TIME (50), clamped to
        # the profile's t_domain, which both kinds carry.
        surface = make_horosphere(3, 1.0)
        closed = resolve_profile(surface)
        assert closed.t_domain == (-math.inf, math.inf)
        monkeypatch.setattr(ClosedFormProfile, "t_domain", (-math.inf, 10.0))
        for profile in (closed, integrate(surface, 10.0)):
            read = []
            monkeypatch.setattr(profile, "xi", lambda t, xi=profile.xi: read.append(t) or xi(t))
            assert analyze(surface, profile).limit_kind == "eternal"
            assert read == [10.0], type(profile).__name__

    def test_undetermined_profile_rejected(self):
        surface = make_sphere_umbilic(2, 1.0)
        prof = integrate(surface, 0.05)  # stops before any conclusion
        with pytest.raises(AnalysisIncompleteError):
            analyze(surface, prof)


class TestResiduals:
    def test_focal_condition_residual_small_at_limit_offset(self):
        # The residual reported at t* - eps scales like sqrt(eps); with the
        # default offset max(1e-8, 1e-8 t*) it sits in the 1e-4 range.
        report = closed_report(make_sphere_product(1, 2, 2.0))
        assert report.focal_condition_residual < 1e-2
        assert report.focal_condition_residual == pytest.approx(
            (1 + 4.0) * math.sqrt(2 * 1 * 1e-8), rel=0.2
        )

    def test_blowup_confined_to_degenerate_block(self):
        surface = sphere_family_from_kappa1(4, 3.0)
        prof = resolve_profile(surface)
        report = analyze(surface, prof)
        eps = max(1e-8, 1e-8 * prof.t_star)
        xi_end = prof.xi(prof.t_star - eps)
        hats = [
            abs(parallel_curvature(surface.space_form, b.kappa, xi_end))
            for b in surface.blocks
        ]
        assert hats[report.degenerate_block_index] > 1e3
        others = [h for i, h in enumerate(hats) if i != report.degenerate_block_index]
        assert max(others) < 50.0


class TestExpectedDimensions:
    def test_catalog_predictions(self):
        assert focal_dimension_expected(make_euclidean_cylinder(1, 3, 1.0)) == 2
        assert focal_dimension_expected(make_euclidean_cylinder(2, 2, 1.0)) is None
        assert focal_dimension_expected(make_hyperbolic_cylinder(2, 3, 3.0)) == 3
        assert focal_dimension_expected(make_sphere_product(1, 2, 2.0)) == 1
        assert focal_dimension_expected(sphere_family_from_kappa1(3, 2.0, [2] * 3)) == 4
        assert focal_dimension_expected(sphere_family_from_kappa1(6, 4.0)) == 5
        assert focal_dimension_expected(make_horosphere(3, 1.0)) is None
        assert focal_dimension_expected(make_hyperbolic_umbilic(2, 0.5)) is None

    def test_prediction_matches_analysis_with_blocks_given_in_any_order(self):
        # The oracle reads blocks[1].mult, m2 = 2, so kappa2 = 1/kappa1 must not lead.
        surface = surface_from_dict({"space_form": -1, "family": "hyperbolic_cylinder",
                                     "blocks": [{"kappa": 0.5, "mult": 2},
                                                {"kappa": 2.0, "mult": 1}]})
        assert focal_dimension_expected(surface) == 2
        assert closed_report(surface).focal_dimension == 2

    def test_predictions_match_analysis_on_flipped(self):
        for surface in (
            sphere_family_from_kappa1(4, 2.0),
            sphere_family_from_kappa1(6, 2.0),
            sphere_family_from_kappa1(3, 1.0),
        ):
            expected = focal_dimension_expected(surface)
            assert closed_report(surface).focal_dimension == expected

    def test_consistency_with_ode_estimate(self):
        surface = sphere_family_from_kappa1(6, 4.0)
        report = closed_report(surface)
        assert report.t_star == pytest.approx(estimate_tstar(surface), abs=1e-7)


def test_report_serialization():
    report = closed_report(make_horosphere(3, 1.0))
    doc = report.to_dict()
    assert doc["t_star"] is None
    assert doc["limit_kind"] == "eternal"
    finite = closed_report(make_sphere_umbilic(2, 1.0)).to_dict()
    assert finite["t_star"] == pytest.approx(math.log(2.0) / 4.0)
    assert finite["focal_dimension"] == 0


# ---------------------------------------------------------------------------
# analyze against the two-branch reading it replaced

def _two_branch_analyze(surface, profile):
    """The earlier analyze: its own focal scan and one limit read per branch."""
    from isoflow.collapse import (
        ETERNAL_CHECK_TIME, ETERNAL_DRIFT_TOL, GEODESIC_LIMIT_TOL, CollapseReport,
        _limit_eval_offset)
    from isoflow.spaceform import _inverse_slope, focal_offset, parallel_metric_factor

    def clamp(t):
        domain = getattr(profile, "t_domain", None)
        if domain is not None:
            lo, hi = domain
            if t > hi:
                t = hi
            if t < lo:
                t = lo
        return t

    t_star = getattr(profile, "t_star", None)
    if t_star is None:
        raise AnalysisIncompleteError("profile carries no collapse information")
    flipped = not surface.is_minimal and surface.mean_curvature_at_zero < 0
    sf = surface.space_form
    if math.isfinite(t_star):
        xi_end = float(profile.xi(clamp(t_star - _limit_eval_offset(t_star))))
        direction = 1 if surface.mean_curvature_at_zero > 0 else -1
        offsets = [focal_offset(sf, b.kappa, direction) for b in surface.blocks]
        nearest = min(abs(o) for o in offsets if o is not None)
        degenerate = [i for i, o in enumerate(offsets)
                      if o is not None and abs(abs(o) - nearest) < 1e-12 * (1.0 + nearest)]
        factors = tuple(float(parallel_metric_factor(sf, b.kappa, xi_end))
                        for b in surface.blocks)
        if len(degenerate) == len(surface.blocks):
            kind, focal_dim = "point", 0
        else:
            kind = "focal_submanifold"
            focal_dim = surface.n - sum(surface.blocks[i].mult for i in degenerate)
        residual = abs(_inverse_slope(sf, xi_end) - surface.blocks[degenerate[0]].kappa)
        return CollapseReport(float(t_star), kind, degenerate[0], focal_dim, residual,
                              factors, flipped)
    xi_end = float(profile.xi(clamp(ETERNAL_CHECK_TIME)))
    hats = np.array([float(parallel_curvature(sf, b.kappa, xi_end)) for b in surface.blocks])
    base = np.array([b.kappa for b in surface.blocks])
    factors = tuple(float(parallel_metric_factor(sf, b.kappa, xi_end)) for b in surface.blocks)
    if np.max(np.abs(hats - base)) < ETERNAL_DRIFT_TOL:
        kind = "eternal"
    elif np.max(np.abs(hats)) < GEODESIC_LIMIT_TOL:
        kind = "totally_geodesic_limit"
    else:
        raise AnalysisIncompleteError("neither constant nor vanishing curvatures")
    return CollapseReport(math.inf, kind, None, None, None, factors, flipped)


class TestSameReportAsTwoBranchReading:
    @pytest.mark.parametrize("label, surface", verification.builtin_grid(),
                             ids=[label for label, _ in verification.builtin_grid()])
    def test_grid_surface(self, label, surface):
        numeric = estimate_tstar(surface, full_output=True)[2]
        for profile in (resolve_profile(surface), numeric):
            got, want = analyze(surface, profile), _two_branch_analyze(surface, profile)
            assert got.to_dict() == want.to_dict()

    def test_eternal_window_clamped_to_the_run(self):
        surface = make_horosphere(2, 1.0)
        profile = integrate(surface, 1.0)
        report = analyze(surface, profile)
        assert report.to_dict() == _two_branch_analyze(surface, profile).to_dict()
        assert report.limit_kind == "eternal"

    def test_short_run_rejected_by_both(self):
        surface = make_sphere_umbilic(2, 1.0)
        profile = integrate(surface, 0.05)
        for reading in (analyze, _two_branch_analyze):
            with pytest.raises(AnalysisIncompleteError):
                reading(surface, profile)
