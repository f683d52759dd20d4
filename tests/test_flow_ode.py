"""ODE engine: right-hand side, integration, guard and collapse-time estimates."""

import math

import numpy as np
import pytest

from isoflow import (
    IntegrationFailureError,
    InvalidInputError,
    OdeOptions,
    estimate_tstar,
    integrate,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    resolve_profile,
    flow_ode,
    rhs,
    sphere_family_from_kappa1,
    verification,
)
from isoflow.catalog import SPHERE, mean_curvature
from isoflow.flow_ode import DEFAULT_OPTIONS
from isoflow.spaceform import parallel_metric_factor


@pytest.fixture(scope="module")
def euclidean_sphere():
    return make_euclidean_cylinder(2, 2, 1.0)


class TestOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS.rel_tol == 1e-10
        assert DEFAULT_OPTIONS.abs_tol == 1e-12
        assert DEFAULT_OPTIONS.singularity_guard == 1e-9

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OdeOptions(rel_tol=-1.0)
        with pytest.raises(InvalidInputError):
            OdeOptions(rel_tol=1e-15)
        with pytest.raises(InvalidInputError):
            OdeOptions(singularity_guard=0.0)


class TestRhs:
    def test_minimal_is_stationary(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        assert rhs(clifford, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_euclidean_sphere(self, euclidean_sphere):
        assert rhs(euclidean_sphere, 0.0) == pytest.approx(2.0)

    def test_hyperbolic_umbilic(self):
        # n=2, kappa=2 at xi=0: each curvature contributes (0 + 2)/(1 - 0)
        s = make_hyperbolic_umbilic(2, 2.0)
        assert rhs(s, 0.0) == pytest.approx(4.0)


class TestIntegrate:
    def test_minimal_flow_is_constant(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        prof = integrate(clifford, 5.0)
        ts = np.linspace(0, 5, 17)
        np.testing.assert_allclose(prof.xi(ts), 0.0, atol=1e-12)
        assert prof.t_star == math.inf

    def test_euclidean_sphere_profile_value(self, euclidean_sphere):
        # xi(t) = 1 - sqrt(1 - 4t) for two unit curvatures
        prof = integrate(euclidean_sphere, 0.2)
        assert prof.termination == "reached_t_end"
        assert prof.xi(0.2) == pytest.approx(1.0 - math.sqrt(0.2), abs=1e-9)

    def test_guard_triggers_before_collapse(self, euclidean_sphere):
        prof = integrate(euclidean_sphere, 0.3)
        assert prof.termination == "hit_singularity"
        lo, hi = prof.t_star_bracket
        assert lo <= 0.25 <= hi
        assert prof.t_star == pytest.approx(0.25, abs=1e-8)

    def test_rejects_non_finite_horizon(self, euclidean_sphere):
        with pytest.raises(InvalidInputError):
            integrate(euclidean_sphere, math.inf)

    def test_domain_enforced(self, euclidean_sphere):
        prof = integrate(euclidean_sphere, 0.2)
        with pytest.raises(InvalidInputError):
            prof.xi(0.21)

    def test_backward_flow_is_monotone(self):
        for surface in (
            make_sphere_product(1, 2, 2.0),
            make_hyperbolic_cylinder(1, 1, 2.0),
            make_euclidean_cylinder(2, 2, 1.0),
        ):
            prof = integrate(surface, -3.0)
            ts = np.linspace(0.0, -3.0, 40)
            values = prof.xi(ts)
            assert np.all(np.diff(values) < 0)  # xi decreases as t decreases

    def test_forward_flow_is_monotone(self):
        prof = integrate(make_sphere_product(1, 2, 2.0), 0.12)
        ts = np.linspace(0.0, 0.12, 60)
        assert np.all(np.diff(prof.xi(ts)) > 0)
        assert prof.xi(0.0) == 0.0

    def test_custom_guard_and_max_step(self):
        opts = OdeOptions(rel_tol=1e-12, abs_tol=1e-14, max_step=0.01,
                          singularity_guard=1e-6)
        prof = integrate(make_euclidean_cylinder(2, 2, 1.0), 0.3, opts)
        assert prof.termination == "hit_singularity"
        assert prof.t_star == pytest.approx(0.25, abs=1e-9)

    def test_mean_curvature_equals_slope(self):
        # Central difference of the dense output against the RHS at xi(t).
        surface = make_sphere_product(2, 5, 2.0)
        prof = integrate(surface, 0.05)
        h = 1e-6
        for t in np.linspace(5 * h, 0.05 - 5 * h, 25):
            slope = (prof.xi(t + h) - prof.xi(t - h)) / (2 * h)
            assert slope == pytest.approx(rhs(surface, prof.xi(t)), abs=1e-6)

    def test_isoparametric_composition_preserved(self):
        # The evolved block data defines the same flow: treating the surface
        # at offset xi1 as new initial data reproduces the original RHS.
        surface = sphere_family_from_kappa1(4, 3.0, [1, 2, 1, 2])
        for xi1 in (0.0, 0.05, 0.1):
            evolved = surface.parallel_surface(xi1)
            for xi2 in (0.0, 0.03):
                assert rhs(evolved, xi2) == pytest.approx(
                    rhs(surface, xi1 + xi2), rel=1e-10, abs=1e-10
                )


class TestEstimateTstar:
    def test_euclidean_sphere(self, euclidean_sphere):
        value, bound, bracket, _ = estimate_tstar(euclidean_sphere, full_output=True)
        assert value == pytest.approx(0.25, abs=1e-8)
        assert bound <= 1e-8
        assert bracket[0] <= 0.25 <= bracket[1]

    def test_horosphere_is_eternal(self):
        assert estimate_tstar(make_horosphere(3, 1.0)) == math.inf
        assert estimate_tstar(make_horosphere(2, -1.0)) == math.inf

    def test_hyperbolic_umbilic_value(self):
        got = estimate_tstar(make_hyperbolic_umbilic(2, 2.0))
        assert got == pytest.approx(math.log(4.0 / 3.0) / 4.0, abs=1e-8)

    def test_geodesic_limit_is_eternal(self):
        assert estimate_tstar(make_hyperbolic_umbilic(2, 0.5)) == math.inf

    def test_minimal_is_eternal(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        assert estimate_tstar(clifford) == math.inf

    def test_negative_mean_curvature_flow(self):
        surface = sphere_family_from_kappa1(4, 2.0)  # flows toward negative xi
        value = estimate_tstar(surface)
        assert math.isfinite(value) and value > 0

    def test_collapse_past_fifty_is_finite(self):
        # t* = 1 / (2 m kappa^2) = 200/3: a late collapse is still a collapse.
        got = estimate_tstar(make_euclidean_cylinder(3, 3, 0.05))
        assert got == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_guard_past_focal_offset_raises(self):
        # t* = 2.5e-15: the guard can only fire past xi* = arccot(1e7), so the
        # numeric profile fails, while the quadrature still gives t*.
        surface = make_sphere_umbilic(2, 1e7)
        with pytest.raises(IntegrationFailureError):
            integrate(surface, 1.0)
        assert estimate_tstar(surface) == pytest.approx(math.log1p(1e-14) / 4, rel=1e-12)

    def test_hyperbolic_overshoot_stays_finite(self):
        # Trial steps past xi* = artanh(1e-7) must stay finite in the clamped RHS.
        prof = integrate(make_hyperbolic_umbilic(2, 1e7), 1.0)
        assert prof.t_star == pytest.approx(-math.log1p(-1e-14) / 4, rel=1e-12)

    def test_near_minimal_product(self):
        # The zero of H near zeta = -H(0)/H'(0) sits just outside the interval.
        surface = make_sphere_product(1, 3, math.sqrt(2.0) + 1e-8)
        exact = resolve_profile(surface).t_star
        assert estimate_tstar(surface) == pytest.approx(exact, rel=1e-8)

    def test_integrate_reports_the_same_tstar(self, euclidean_sphere):
        for surface in (euclidean_sphere, sphere_family_from_kappa1(4, 2.0),
                        make_hyperbolic_cylinder(1, 2, 1.5)):
            t_star = estimate_tstar(surface)
            assert integrate(surface, 2.0 * t_star).t_star == t_star


def _grid_offsets(surface):
    """20 offsets strictly between 0 and xi* in the flow direction (up to 1 without xi*)."""
    direction, watched = flow_ode._focal_blocks(surface)
    end = min(abs(off) for _, off in watched) if watched else 1.0
    return (direction or 1) * np.linspace(0.0, end, 22)[1:-1]


class TestKernel:
    """The integrator's math-scalar kernel against the numpy formulas it replaces."""

    def test_rhs_matches_mean_curvature(self):
        for label, surface in verification.builtin_grid():
            _, watched = flow_ode._focal_blocks(surface)
            fun, _ = flow_ode._kernel(surface, watched, DEFAULT_OPTIONS.singularity_guard)
            for xi in _grid_offsets(surface):
                h = mean_curvature(surface, float(xi))
                got = fun(0.0, np.array([xi]))[0]
                assert abs(got - h) <= 4 * math.ulp(max(1.0, abs(h))), (label, xi, got, h)

    def test_rhs_is_finite_at_the_focal_offset(self):
        # Trial steps land on or past xi*; the clamped denominators keep H finite.
        for surface in (make_euclidean_cylinder(2, 2, 1.0), make_sphere_umbilic(2, 1.0),
                        make_hyperbolic_umbilic(2, 2.0)):
            _, watched = flow_ode._focal_blocks(surface)
            fun, _ = flow_ode._kernel(surface, watched, DEFAULT_OPTIONS.singularity_guard)
            for _, xi_star in watched:
                assert math.isfinite(fun(0.0, np.array([xi_star]))[0])

    def test_guard_is_least_metric_factor(self):
        level = DEFAULT_OPTIONS.singularity_guard
        checked = 0
        for label, surface in verification.builtin_grid():
            _, watched = flow_ode._focal_blocks(surface)
            if not watched:
                continue
            _, guard = flow_ode._kernel(surface, watched, level)
            sf = surface.space_form
            for xi in _grid_offsets(surface):
                least = min(parallel_metric_factor(sf, k, float(xi)) for k, _ in watched)
                assert guard(0.0, np.array([xi])) == least - level, (label, xi)
            checked += 1
        assert checked >= 40
