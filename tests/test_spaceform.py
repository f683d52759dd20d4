"""Core space-form trigonometry and parallel-offset formulas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoflow import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    InvalidFrameError,
    InvalidInputError,
    NumericalRangeError,
    SingularParallelError,
    SpaceForm,
    cs_eval,
    focal_offset,
    make_sphere_umbilic,
    mean_curvature,
    parallel_curvature,
    parallel_metric_factor,
    parallel_point,
)
from isoflow.spaceform import _inverse_slope, check_frame, parallel_map

ALL_FORMS = (HYPERBOLIC, EUCLIDEAN, SPHERE)


def cols(rows):
    """The columns of (P, d) rows, as check_frame and parallel_map take a frame."""
    return tuple(rows.T)


def test_space_form_rejects_other_curvatures():
    for bad in (2, -3, 0.5, 1.0, True):
        with pytest.raises(InvalidInputError):
            SpaceForm(bad)


class TestCsEval:
    def test_sphere_identity_case(self):
        assert cs_eval(SPHERE, 0.0) == (1.0, 0.0)

    def test_flat_case_is_one_and_xi(self):
        assert cs_eval(EUCLIDEAN, 2.5) == (1.0, 2.5)

    def test_hyperbolic_at_log_two(self):
        # cosh(ln 2) = (2 + 1/2)/2 = 5/4, sinh(ln 2) = (2 - 1/2)/2 = 3/4
        c, s = cs_eval(HYPERBOLIC, math.log(2.0))
        assert c == pytest.approx(1.25, abs=1e-15)
        assert s == pytest.approx(0.75, abs=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            cs_eval(SPHERE, math.inf)
        with pytest.raises(InvalidInputError):
            cs_eval(HYPERBOLIC, math.nan)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(ALL_FORMS), st.floats(-10, 10))
    def test_quadratic_identity_within_4_ulp(self, sf, xi):
        c, s = cs_eval(sf, xi)
        residual = abs(c * c + sf.curvature * s * s - 1.0)
        scale = max(1.0, c * c, abs(s * s))
        assert residual <= 4.0 * np.spacing(scale)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(ALL_FORMS), st.floats(-3, 3))
    def test_derivatives_by_finite_differences(self, sf, xi):
        h = 1e-6
        c0, s0 = cs_eval(sf, xi)
        c1, s1 = cs_eval(sf, xi + h)
        # |second derivative| <= cosh(3) ~ 10 on the sampled range
        assert (c1 - c0) / h == pytest.approx(-sf.curvature * s0, abs=2e-5)
        assert (s1 - s0) / h == pytest.approx(c0, abs=2e-5)


class TestParallelCurvature:
    def test_offset_zero_is_identity(self):
        for sf in ALL_FORMS:
            for k in (-2.0, -0.5, 0.0, 0.7, 3.0):
                assert parallel_curvature(sf, k, 0.0) == pytest.approx(k, abs=1e-15)

    def test_flat_example(self):
        assert parallel_curvature(EUCLIDEAN, 1.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_sphere_cotangent_addition(self):
        # kappa = cot(pi/4); offset pi/8 gives cot(pi/8) = tan(3 pi/8)
        got = parallel_curvature(SPHERE, 1.0, math.pi / 8)
        assert got == pytest.approx(math.tan(3 * math.pi / 8), rel=1e-14)

    def test_raises_at_focal_point(self):
        with pytest.raises(SingularParallelError):
            parallel_curvature(EUCLIDEAN, 2.0, 0.5)
        with pytest.raises(SingularParallelError):
            parallel_curvature(SPHERE, 1.0, math.pi / 4)

    def test_matches_raw_formula(self):
        rng = np.random.default_rng(7)
        for sf in ALL_FORMS:
            for _ in range(200):
                k = rng.uniform(-4, 4)
                xi = rng.uniform(-2, 2)
                c, s = cs_eval(sf, xi)
                den = c - k * s
                if abs(den) < 1e-6:
                    continue
                raw = (sf.curvature * s + k * c) / den
                got = parallel_curvature(sf, k, xi)
                assert got == pytest.approx(raw, rel=1e-10, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(ALL_FORMS),
        st.floats(-3, 3),
        st.floats(-0.6, 0.6),
        st.floats(-0.6, 0.6),
    )
    def test_composition_law(self, sf, kappa, xi1, xi2):
        # Evolving by xi1 then xi2 equals evolving by xi1 + xi2.
        try:
            step1 = parallel_curvature(sf, kappa, xi1)
            chained = parallel_curvature(sf, step1, xi2)
            direct = parallel_curvature(sf, kappa, xi1 + xi2)
        except SingularParallelError:
            return
        if abs(direct) > 1e6:
            return
        assert chained == pytest.approx(direct, rel=1e-10, abs=1e-10)

    def test_horosphere_curvature_is_constant(self):
        for xi in (-5.0, 0.3, 12.0):
            assert parallel_curvature(HYPERBOLIC, 1.0, xi) == 1.0
            assert parallel_curvature(HYPERBOLIC, -1.0, xi) == -1.0

    def test_coth_is_its_sign_where_cosh_and_sinh_overflow(self):
        # cosh and sinh overflow at |anchor - xi| ~ 800, where coth is +-1 in doubles;
        # every finite quotient keeps its bits.
        assert parallel_curvature(HYPERBOLIC, 2.0, -800.0) == 1.0
        assert parallel_curvature(HYPERBOLIC, -2.0, 800.0) == -1.0
        got = parallel_curvature(HYPERBOLIC, 2.0, np.array([-800.0, -10.0, 0.25, 800.0]))
        delta = math.atanh(0.5) - np.array([-10.0, 0.25])
        np.testing.assert_array_equal(got, [1.0, *(np.cosh(delta) / np.sinh(delta)), -1.0])

    def test_curvature_whose_square_overflows(self):
        # kappa^2 overflows past |kappa| ~ 1.34e154; the block's scale is |kappa| there.
        assert parallel_curvature(SPHERE, 1e200, 0.0) == 1e200
        assert mean_curvature(make_sphere_umbilic(2, 1e200), 0.0) == 2e200


class TestMetricFactor:
    def test_offset_zero_is_one(self):
        for sf in ALL_FORMS:
            assert parallel_metric_factor(sf, 1.7, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_offset_zero_is_one_where_the_curvature_squared_overflows(self):
        for sf in (SPHERE, HYPERBOLIC):
            assert parallel_metric_factor(sf, 1e200, 0.0) == 1.0

    def test_focal_degeneracy_on_sphere(self):
        assert parallel_metric_factor(SPHERE, 1.0, math.pi / 4) == pytest.approx(0.0, abs=1e-30)

    def test_flat_example(self):
        assert parallel_metric_factor(EUCLIDEAN, 2.0, 0.25) == pytest.approx(0.25, rel=1e-15)

    def test_zero_factor_iff_singular_curvature(self):
        # The factor vanishes exactly where parallel_curvature reports a focal point.
        cases = [
            (SPHERE, 0.7),
            (EUCLIDEAN, 1.3),
            (HYPERBOLIC, 2.0),
        ]
        for sf, k in cases:
            xi_star = focal_offset(sf, k, 1)
            assert parallel_metric_factor(sf, k, xi_star) < 1e-25
            with pytest.raises(SingularParallelError):
                parallel_curvature(sf, k, xi_star)


class TestFocalOffset:
    def test_sphere_always_has_targets_both_ways(self):
        assert focal_offset(SPHERE, 1.0, 1) == pytest.approx(math.pi / 4)
        assert focal_offset(SPHERE, 1.0, -1) == pytest.approx(math.pi / 4 - math.pi)
        assert focal_offset(SPHERE, -2.0, 1) == pytest.approx(math.atan2(1.0, -2.0))

    def test_flat_target_only_on_curved_side(self):
        assert focal_offset(EUCLIDEAN, 2.0, 1) == pytest.approx(0.5)
        assert focal_offset(EUCLIDEAN, 2.0, -1) is None
        assert focal_offset(EUCLIDEAN, 0.0, 1) is None

    def test_hyperbolic_target_needs_kappa_beyond_one(self):
        assert focal_offset(HYPERBOLIC, 2.0, 1) == pytest.approx(math.atanh(0.5))
        assert focal_offset(HYPERBOLIC, 1.0, 1) is None
        assert focal_offset(HYPERBOLIC, 0.5, 1) is None
        assert focal_offset(HYPERBOLIC, -2.0, -1) == pytest.approx(-math.atanh(0.5))
        assert focal_offset(HYPERBOLIC, -2.0, 1) is None


class TestParallelPoint:
    def test_identity_at_zero(self):
        F = np.array([1.0, 0.0, 0.0])
        N = np.array([0.0, 1.0, 0.0])
        F2, N2 = parallel_point(SPHERE, F, N, 0.0)
        np.testing.assert_allclose(F2, F)
        np.testing.assert_allclose(N2, N)

    def test_quarter_turn_on_sphere(self):
        F = np.array([1.0, 0.0, 0.0])
        N = np.array([0.0, 1.0, 0.0])
        F2, N2 = parallel_point(SPHERE, F, N, math.pi / 2)
        np.testing.assert_allclose(F2, [0.0, 1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(N2, [-1.0, 0.0, 0.0], atol=1e-15)

    def test_flat_translation(self):
        p = np.array([3.0, -1.0])
        nu = np.array([0.0, 1.0])
        F2, N2 = parallel_point(EUCLIDEAN, p, nu, 0.7)
        np.testing.assert_allclose(F2, p + 0.7 * nu)
        np.testing.assert_allclose(N2, nu)

    def test_hyperboloid_constraints_preserved(self):
        # point on the hyperboloid <F,F> = -1 with Lorentz-unit normal
        F = np.array([math.cosh(0.3), math.sinh(0.3), 0.0])
        N = np.array([math.sinh(0.3), math.cosh(0.3), 0.0])
        F2, N2 = parallel_point(HYPERBOLIC, F, N, 0.9)
        assert -F2[0] ** 2 + F2[1] ** 2 + F2[2] ** 2 == pytest.approx(-1.0, abs=1e-12)
        assert -N2[0] ** 2 + N2[1] ** 2 + N2[2] ** 2 == pytest.approx(1.0, abs=1e-12)
        assert -F2[0] * N2[0] + F2[1] * N2[1] + F2[2] * N2[2] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_invalid_frame(self):
        F = np.array([1.0, 0.0, 0.0])
        with pytest.raises(InvalidFrameError):
            parallel_point(SPHERE, F, 2.0 * F, 0.1)
        with pytest.raises(InvalidFrameError):
            parallel_point(SPHERE, 1.1 * F, np.array([0.0, 1.0, 0.0]), 0.1)


def _valid_frames(sf):
    """Three (F, N) rows satisfying sf's constraints, at offsets 0, 0.3 and 1.7."""
    F, N = [], []
    for a in (0.0, 0.3, 1.7):
        if sf.curvature == 0:
            F.append([3.0, -a, 0.5])
            N.append([0.0, math.cos(a), math.sin(a)])
        elif sf.curvature == 1:
            F.append([math.cos(a), math.sin(a), 0.0])
            N.append([-math.sin(a), math.cos(a), 0.0])
        else:
            F.append([math.cosh(a), math.sinh(a), 0.0])
            N.append([math.sinh(a), math.cosh(a), 0.0])
    return np.array(F), np.array(N)


class TestCheckFrame:
    @pytest.mark.parametrize("sf", ALL_FORMS)
    def test_each_constraint_violation_raises(self, sf):
        F, N = _valid_frames(sf)
        check_frame(sf, cols(F), cols(N))
        bad = N.copy()
        bad[1] *= 1.1
        with pytest.raises(InvalidFrameError, match="normal is not unit"):
            check_frame(sf, cols(F), cols(bad))
        if sf.curvature == 0:  # positions are free, and _valid_frames' are not orthogonal
            check_frame(sf, cols(1.1 * F), cols(N))
            return
        scaled = F.copy()
        scaled[0] *= 1.1
        with pytest.raises(InvalidFrameError, match="position does not satisfy"):
            check_frame(sf, cols(scaled), cols(N))
        # N + eps F stays unit after dividing by sqrt(1 + kbar eps^2) and
        # leans toward F: only orthogonality fails.
        eps = 0.1
        leaning = N.copy()
        leaning[2] = (N[2] + eps * F[2]) / math.sqrt(1.0 + sf.curvature * eps * eps)
        with pytest.raises(InvalidFrameError, match="not orthogonal"):
            check_frame(sf, cols(F), cols(leaning))


    @pytest.mark.parametrize("sf", ALL_FORMS)
    @pytest.mark.parametrize("which, col", [("F", 0), ("F", 2), ("N", 0), ("N", 1)])
    def test_nan_row_raises(self, sf, which, col):
        F, N = _valid_frames(sf)
        bad = (F if which == "F" else N).copy()
        bad[1, col] = math.nan
        with pytest.raises(InvalidFrameError):
            check_frame(sf, *map(cols, (bad, N) if which == "F" else (F, bad)))

    @pytest.mark.parametrize("sf", ALL_FORMS)
    def test_overflowing_row_raises(self, sf):
        # <F,F> overflows to inf, and so would a tolerance scaled by it.
        F, N = _valid_frames(sf)
        F[2] *= 1e200
        with pytest.raises(InvalidFrameError, match="not finite"):
            check_frame(sf, cols(F), cols(N))


@pytest.mark.parametrize("sf", ALL_FORMS)
@pytest.mark.parametrize("xi", [0.0, 0.37, -1.2])
def test_parallel_map_bytes_equal_formula(sf, xi):
    # Signed zeros included: 0 * F is -0.0 where F < 0, and -0.0 + 0.0 is 0.0.
    rng = np.random.default_rng(3)
    F, N = rng.normal(size=(2, 40, 4))
    F[::3, 1], N[::4, 2], N[1::4, 2] = -0.0, -0.0, 0.0
    c, s = cs_eval(sf, xi)
    points, normals = parallel_map(sf, cols(F), cols(N), xi)
    assert np.stack(points, axis=-1).tobytes() == (c * F + s * N).tobytes()
    assert np.stack(normals, axis=-1).tobytes() == (-sf.curvature * s * F + c * N).tobytes()


@pytest.mark.parametrize("sf, kappa", [
    (SPHERE, 2.0), (SPHERE, -0.3), (EUCLIDEAN, 1.5), (EUCLIDEAN, -4.0),
    (HYPERBOLIC, 3.0), (HYPERBOLIC, -1.2),
])
def test_inverse_slope_inverts_focal_offset(sf, kappa):
    xi = focal_offset(sf, kappa, 1 if kappa > 0 else -1)
    assert _inverse_slope(sf, xi) == pytest.approx(kappa, rel=1e-14)
    with pytest.raises(NumericalRangeError):
        _inverse_slope(sf, 0.0)
