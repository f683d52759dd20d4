"""ODE engine: right-hand side, integration, guard and collapse-time estimates."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.integrate

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
from isoflow.spaceform import parallel_denominator


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

    def test_guard_past_focal_offset_raises(self, monkeypatch):
        # A guard on the squared factor min (c - kappa s)^2 - level turns
        # positive again once a step jumps past xi* = arccot(1e7) (t* =
        # 2.5e-15), so it fires past xi*: the numeric profile then fails,
        # while the quadrature still gives t*.
        kernel = flow_ode._kernel

        def squared_guard_kernel(surface, watched, level):
            fun, guard = kernel(surface, watched, level)
            return fun, lambda xi: (guard(xi) + math.sqrt(level)) ** 2 - level

        monkeypatch.setattr(flow_ode, "_kernel", squared_guard_kernel)
        surface = make_sphere_umbilic(2, 1e7)
        with pytest.raises(IntegrationFailureError):
            integrate(surface, 1.0)
        assert estimate_tstar(surface) == pytest.approx(math.log1p(1e-14) / 4, rel=1e-12)

    def test_guard_stops_before_focal_offset(self):
        # The signed guard stays negative past xi*, so the same jump ends the run before it.
        surface = make_sphere_umbilic(2, 1e7)
        prof = integrate(surface, 1.0)
        assert prof.termination == "hit_singularity"
        t_stop, xi_stop, _ = prof.guard_trigger
        assert 0.0 < xi_stop < math.atan2(1.0, 1e7)
        assert prof.xi(t_stop) == xi_stop
        assert prof.t_star == pytest.approx(math.log1p(1e-14) / 4, rel=1e-12)

    def test_small_kappa_umbilic(self):
        # t* = log1p(1/kappa^2) / (2n): the sphere numerator sin(xi) + kappa cos(xi)
        # keeps its precision where the anchor arccot(kappa) is 1e-9 from pi/2.
        got = estimate_tstar(make_sphere_umbilic(1000, 1e-9))
        assert got == pytest.approx(math.log1p(1e18) / 2000, rel=1e-12)

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
                got = fun(float(xi))
                assert abs(got - h) <= 4 * math.ulp(max(1.0, abs(h))), (label, xi, got, h)

    def test_rhs_is_finite_at_the_focal_offset(self):
        # Trial steps land on or past xi*; the clamped denominators keep H finite.
        for surface in (make_euclidean_cylinder(2, 2, 1.0), make_sphere_umbilic(2, 1.0),
                        make_hyperbolic_umbilic(2, 2.0)):
            _, watched = flow_ode._focal_blocks(surface)
            fun, _ = flow_ode._kernel(surface, watched, DEFAULT_OPTIONS.singularity_guard)
            for _, xi_star in watched:
                assert math.isfinite(fun(xi_star))

    def test_guard_is_least_metric_factor(self):
        # The least signed root c - kappa s of the watched metric factors, less sqrt(level).
        level = DEFAULT_OPTIONS.singularity_guard
        checked = 0
        for label, surface in verification.builtin_grid():
            _, watched = flow_ode._focal_blocks(surface)
            if not watched:
                continue
            _, guard = flow_ode._kernel(surface, watched, level)
            sf = surface.space_form
            for xi in _grid_offsets(surface):
                least = min(parallel_denominator(sf, k, float(xi)) for k, _ in watched)
                assert guard(float(xi)) == least - math.sqrt(level), (label, xi)
            checked += 1
        assert checked >= 40


def _scipy_reference(surface, t_end, opts=DEFAULT_OPTIONS):
    """scipy's solve_ivp(method="DOP853") on the same kernel, guard and options."""
    _, watched = flow_ode._focal_blocks(surface)
    fun, guard = flow_ode._kernel(surface, watched, opts.singularity_guard)
    event = lambda t, y: guard(float(y[0]))  # noqa: E731
    event.terminal, event.direction = True, -1
    return scipy.integrate.solve_ivp(
        lambda t, y: [fun(float(y[0]))], (0.0, t_end), [0.0], method="DOP853",
        rtol=opts.rel_tol, atol=opts.abs_tol, max_step=opts.max_step, dense_output=True,
        events=[event] if t_end > 0 and watched else None,
    )


def _assert_agrees_with_scipy(surface, t_end, ts, opts=DEFAULT_OPTIONS):
    """The driver's xi at ``ts`` within rel_tol * max|xi| of scipy's; returns both runs."""
    prof = integrate(surface, t_end, opts)
    ref = _scipy_reference(surface, t_end, opts)
    assert prof.termination == {0: "reached_t_end", 1: "hit_singularity"}[ref.status]
    want = ref.sol(ts)[0]
    assert np.max(np.abs(prof.xi(ts) - want)) <= opts.rel_tol * np.max(np.abs(want))
    return prof, ref


class TestDriver:
    """The float-scalar DOP853 loop against scipy's solve_ivp on the same kernel."""

    def test_tableau_is_scipys(self):
        stages, b, e5, e3, extra, d = flow_ode._dop853()
        method = scipy.integrate.DOP853
        for s, row in enumerate(stages, start=1):
            assert row == tuple(method.A[s, :s])
        for i, row in enumerate(extra):
            assert row == tuple(method.A_EXTRA[i, :method.n_stages + 1 + i])
        assert (b, e5, e3) == (tuple(method.B), tuple(method.E5), tuple(method.E3))
        assert d == tuple(map(tuple, method.D)) and method.error_estimator_order == 7

    def test_integration_leaves_scipy_integrate_unloaded(self):
        # The coefficient table is read from its file; scipy.integrate's solvers stay out.
        code = """
import sys
import isoflow
isoflow.integrate(isoflow.make_sphere_umbilic(2, 1.0), 1.0)
assert "scipy.integrate" not in sys.modules
"""
        src = os.path.dirname(os.path.dirname(flow_ode.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_matches_scipy_on_grid(self):
        # At the 200 times of the oracle-agreement check.
        for label, surface in verification.builtin_grid():
            t_star = resolve_profile(surface).t_star
            ts = np.linspace(0.0, verification._window_end(t_star), 200)
            if surface.is_minimal:  # stationary: integrate runs no solver
                assert np.all(integrate(surface, ts[-1]).xi(ts) == 0.0), label
                continue
            _assert_agrees_with_scipy(surface, ts[-1], ts)

    def test_backward_run(self):
        prof, _ = _assert_agrees_with_scipy(make_sphere_product(1, 2, 2.0), -3.0,
                                            np.linspace(0.0, -3.0, 200))
        assert prof.times[-1] == -3.0 and prof.t_domain == (-3.0, 0.0)

    def test_guard_fires_in_the_first_step(self):
        opts = OdeOptions(singularity_guard=0.99)
        surface = make_euclidean_cylinder(2, 2, 10.0)
        ts = np.linspace(0.0, 2e-5, 50)  # the guard stops both at 2.5e-5
        prof, ref = _assert_agrees_with_scipy(surface, 1.0, ts, opts)
        assert (prof.accepted_steps, prof.rejected_steps, prof.nfev) == (1, 0, 17)
        assert prof.guard_trigger[0] == pytest.approx(ref.t_events[0][0], rel=1e-12)

    def test_counters_add_up_to_nfev(self):
        for label, surface in verification.builtin_grid():
            t_star = resolve_profile(surface).t_star
            prof = integrate(surface, verification._window_end(t_star))
            if surface.is_minimal:
                assert prof.nfev == 0
                continue
            # 2 calls pick the first step, 12 per attempt, 3 per accepted step's interpolant.
            steps = prof.accepted_steps + prof.rejected_steps
            assert prof.nfev == 2 + 12 * steps + 3 * prof.accepted_steps, label
            assert len(prof.times) == prof.accepted_steps + 1, label
