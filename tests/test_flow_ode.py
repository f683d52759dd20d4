"""ODE engine: right-hand side, integration, collapse stop and collapse-time estimates."""

import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from operator import add, mul
from typing import NamedTuple

import numpy as np
import pytest
import scipy.integrate

from isoflow import (
    IntegrationFailureError,
    InvalidInputError,
    NumericalRangeError,
    OdeOptions,
    cli,
    collapse,
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
    sphere_family_from_kappa1,
    verification,
)
from isoflow.catalog import SPHERE, mean_curvature
from isoflow.collapse import ETERNAL_CHECK_TIME, _limit_eval_offset
from isoflow.flow_ode import DEFAULT_OPTIONS


@pytest.fixture(scope="module")
def euclidean_sphere():
    return make_euclidean_cylinder(2, 2, 1.0)


class TestOptions:
    def test_defaults(self):
        assert DEFAULT_OPTIONS.rel_tol == 1e-10
        assert DEFAULT_OPTIONS.abs_tol == 1e-12

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            OdeOptions(rel_tol=-1.0)
        with pytest.raises(InvalidInputError):
            OdeOptions(rel_tol=1e-15)
        for name in ("rel_tol", "abs_tol"):
            with pytest.raises(InvalidInputError, match=f"{name} must be positive and finite"):
                OdeOptions(**{name: math.inf})


class TestRhs:
    def test_minimal_is_stationary(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        assert mean_curvature(clifford, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_euclidean_sphere(self, euclidean_sphere):
        assert mean_curvature(euclidean_sphere, 0.0) == pytest.approx(2.0)

    def test_hyperbolic_umbilic(self):
        # n=2, kappa=2 at xi=0: each curvature contributes (0 + 2)/(1 - 0)
        s = make_hyperbolic_umbilic(2, 2.0)
        assert mean_curvature(s, 0.0) == pytest.approx(4.0)


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
        assert prof.t_star is None and prof.times[-1] == 0.2
        assert prof.xi(0.2) == pytest.approx(1.0 - math.sqrt(0.2), abs=1e-9)

    def test_guard_triggers_before_collapse(self, euclidean_sphere):
        # A window past t* = 0.25 ends at the time collapse.analyze reads.
        prof = integrate(euclidean_sphere, 0.3)
        assert math.isfinite(prof.t_star)
        assert prof.t_domain == (0.0, prof.t_star - _limit_eval_offset(prof.t_star))
        _, bound, _ = estimate_tstar(euclidean_sphere, full_output=True)
        assert abs(prof.t_star - 0.25) <= bound
        assert prof.t_star == pytest.approx(0.25, abs=1e-8)

    def test_rejects_non_finite_horizon(self, euclidean_sphere):
        with pytest.raises(InvalidInputError):
            integrate(euclidean_sphere, math.inf)

    def test_window_short_of_tstar_is_reached(self):
        # t* = 2.5e-9 sits below the 1e-8 floor of _limit_eval_offset, so
        # analyze reads at t*/2; a 0.99 t* window still runs to its end.
        surface = make_sphere_umbilic(2, 1e4)
        t_star = estimate_tstar(surface)
        prof = integrate(surface, 0.99 * t_star)
        assert prof.t_star is None
        assert prof.times[-1] == 0.99 * t_star

    def test_domain_enforced(self, euclidean_sphere):
        prof = integrate(euclidean_sphere, 0.2)
        with pytest.raises(InvalidInputError):
            prof.xi(0.21)

    def test_domain_is_exactly_the_run(self, euclidean_sphere):
        # A run's ends are in its domain and the next doubles past them are not:
        # forward to its collapse stop, and backward from 0.
        for prof in (integrate(euclidean_sphere, 1.0), integrate(euclidean_sphere, -0.3)):
            lo, hi = prof.t_domain
            assert np.all(np.isfinite(prof.xi(np.array([lo, hi]))))
            for t in (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)):
                with pytest.raises(InvalidInputError, match="outside the integrated domain"):
                    prof.xi(t)

    def test_domain_error_names_the_extreme_time(self, euclidean_sphere):
        # 200 requested times give one short message, not the whole array.
        prof = integrate(euclidean_sphere, 0.2)
        with pytest.raises(InvalidInputError) as exc:
            prof.xi(np.linspace(0.0, 0.3, 200))
        assert str(exc.value) == "time 0.3 outside the integrated domain [0.0, 0.2]"
        with pytest.raises(InvalidInputError, match=r"^time -0\.1 outside"):
            prof.xi(np.linspace(-0.1, 0.1, 200))

    @pytest.mark.parametrize("t", [math.nan, np.array([0.0, math.nan])], ids=["scalar", "array"])
    def test_domain_rejects_nan(self, t):
        # NaN lies in no domain: invalid input, not a silent nan, also for a stationary run.
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        for prof in (integrate(make_sphere_product(1, 2, 2.0), 0.05), integrate(clifford, 5.0)):
            with pytest.raises(InvalidInputError, match="^time nan outside the integrated"):
                prof.xi(t)

    def test_run_past_the_step_cap_raises(self, monkeypatch):
        # An eternal run steps near its stability bound, so its steps grow with the window:
        # one that needs more than _MAX_STEPS fails with a typed error naming the cap.
        surface = make_hyperbolic_umbilic(2, 0.5)
        for t_end in (50.0, -50.0):
            steps = integrate(surface, t_end).accepted_steps
            monkeypatch.setattr(flow_ode, "_MAX_STEPS", steps)
            assert integrate(surface, t_end).accepted_steps == steps
            monkeypatch.setattr(flow_ode, "_MAX_STEPS", steps - 1)
            with pytest.raises(IntegrationFailureError,
                               match=rf"short of t = {t_end!r}: .* cap of {steps - 1} steps$"):
                integrate(surface, t_end)

    def test_run_past_the_step_cap_exits_4(self, monkeypatch, capsys):
        # The window that ran without end: one error line and exit 4.
        monkeypatch.setattr(flow_ode, "_MAX_STEPS", 5)
        rc = cli.main(["evolve", "--family", "hyperbolic-umbilic", "--n", "2", "--kappa", "0.5",
                       "--t-end", "1e300", "--samples", "3", "--engine", "ode"])
        out, err = capsys.readouterr()
        assert (rc, out) == (4, "")
        assert err.startswith("error: integration stopped") and err.count("\n") == 1
        assert "t = 1e+300" in err and "cap of 5 steps" in err

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

    def test_custom_tolerances_end_at_the_collapse_stop(self):
        # Tighter error control still ends the run at the collapse stop.
        opts = OdeOptions(rel_tol=1e-12, abs_tol=1e-14)
        prof = integrate(make_euclidean_cylinder(2, 2, 1.0), 0.3, opts)
        assert math.isfinite(prof.t_star)
        assert prof.t_star == pytest.approx(0.25, abs=1e-9)

    def test_mean_curvature_equals_slope(self):
        # Central difference of the dense output against the RHS at xi(t).
        surface = make_sphere_product(2, 5, 2.0)
        prof = integrate(surface, 0.05)
        h = 1e-6
        for t in np.linspace(5 * h, 0.05 - 5 * h, 25):
            slope = (prof.xi(t + h) - prof.xi(t - h)) / (2 * h)
            assert slope == pytest.approx(mean_curvature(surface, prof.xi(t)), abs=1e-6)

    def test_isoparametric_composition_preserved(self):
        # The evolved block data defines the same flow: treating the surface
        # at offset xi1 as new initial data reproduces the original RHS.
        surface = sphere_family_from_kappa1(4, 3.0, [1, 2, 1, 2])
        for xi1 in (0.0, 0.05, 0.1):
            evolved = surface.parallel_surface(xi1)
            for xi2 in (0.0, 0.03):
                assert mean_curvature(evolved, xi2) == pytest.approx(
                    mean_curvature(surface, xi1 + xi2), rel=1e-10, abs=1e-10
                )


class TestEstimateTstar:
    def test_euclidean_sphere(self, euclidean_sphere):
        value, bound, _ = estimate_tstar(euclidean_sphere, full_output=True)
        assert value == pytest.approx(0.25, abs=1e-8)
        assert bound <= 1e-8
        assert abs(value - 0.25) <= bound

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

    def test_underflowed_tstar_raises(self):
        # t* = 1 / (2 kappa^2) = 5e-601 underflows to 0 in the quadrature too.
        surface = make_euclidean_cylinder(1, 1, 1e300)
        with pytest.raises(NumericalRangeError, match="collapse time underflows"):
            estimate_tstar(surface)
        with pytest.raises(NumericalRangeError, match="collapse time underflows"):
            integrate(surface, 1.0)

    @pytest.mark.parametrize("kappa", [1e154, 1e160])
    def test_subnormal_tstar_raises(self, kappa):
        # t* = 1 / (2 kappa^2) = 5e-309 and 5e-321 are subnormal: the quadrature
        # gives 4.999999999999995e-309 and 4.946e-321, the last 1% off.
        with pytest.raises(NumericalRangeError, match="collapse time underflows"):
            estimate_tstar(make_euclidean_cylinder(1, 1, kappa))

    def test_collapse_past_fifty_is_finite(self):
        # t* = 1 / (2 m kappa^2) = 200/3: a late collapse is still a collapse.
        got = estimate_tstar(make_euclidean_cylinder(3, 3, 0.05))
        assert got == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_run_into_the_singularity_raises(self, monkeypatch):
        # A collapse time that is too late sends DOP853 into the singularity:
        # its step underflows and the run fails instead of returning a number.
        collapse_time = flow_ode._collapse_time

        def late(surface, direction, watched):
            t_star, bound = collapse_time(surface, direction, watched)
            return 1.5 * t_star, bound

        monkeypatch.setattr(flow_ode, "_collapse_time", late)
        for surface in (make_euclidean_cylinder(2, 2, 1.0), make_sphere_umbilic(2, 1.0),
                        make_hyperbolic_umbilic(2, 2.0)):
            with pytest.raises(IntegrationFailureError, match="less than spacing"):
                integrate(surface, 10.0)

    def test_guard_stops_before_focal_offset(self):
        # xi* = arccot(1e7) at t* = 2.5e-15: the run ends at t*/2, short of xi*.
        surface = make_sphere_umbilic(2, 1e7)
        prof = integrate(surface, 1.0)
        assert math.isfinite(prof.t_star)
        t_stop, xi_stop = prof.times[-1], prof.xi_values[-1]
        assert t_stop == prof.t_star - _limit_eval_offset(prof.t_star) == prof.t_domain[1]
        assert 0.0 < xi_stop < math.atan2(1.0, 1e7)
        assert prof.xi(t_stop) == xi_stop
        assert prof.t_star == pytest.approx(math.log1p(1e-14) / 4, rel=1e-12)

    def test_hyperbolic_kappa_near_one_reaches_tstar(self):
        # The denominator c - kappa s is about e^-xi long before xi* = artanh(1/kappa);
        # the run still ends at the collapse stop, 1e-8 t* before t*.
        for kappa in (1 + 1e-4, 1 + 1e-8, 1 + 1e-12, 1 + 2.2e-16):
            surface = make_hyperbolic_umbilic(2, kappa)
            t_star = estimate_tstar(surface)
            prof = integrate(surface, 2.0 * t_star)
            assert math.isfinite(prof.t_star), kappa
            assert prof.times[-1] == t_star - _limit_eval_offset(t_star), kappa
        t_star = estimate_tstar(make_hyperbolic_umbilic(2, 1 + 1e-12))
        end = integrate(make_hyperbolic_umbilic(2, 1 + 1e-12), 2.0 * t_star).times[-1]
        assert end == pytest.approx(t_star, rel=1e-8)

    def test_full_output_runs_the_quadrature_once(self, monkeypatch, euclidean_sphere):
        calls = []
        collapse_time = flow_ode._collapse_time

        def counted(*args):
            calls.append(args)
            return collapse_time(*args)

        monkeypatch.setattr(flow_ode, "_collapse_time", counted)
        value, bound, prof = estimate_tstar(euclidean_sphere, full_output=True)
        assert len(calls) == 1
        assert prof.t_star == value and (value, bound) == collapse_time(*calls[0])

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

    @pytest.mark.parametrize("n", [16, 32])
    def test_quadrature_rules_are_leggauss(self, n):
        nodes, weights = np.polynomial.legendre.leggauss(n)
        x, w = (flow_ode._X16, flow_ode._W16) if n == 16 else (flow_ode._X32, flow_ode._W32)
        assert x.tobytes() == nodes.tobytes()
        assert w.tobytes() == weights.tobytes()

    def test_import_leaves_numpy_polynomial_unloaded(self):
        code = "import sys, isoflow.cli; assert 'numpy.polynomial' not in sys.modules"
        src = os.path.dirname(os.path.dirname(flow_ode.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


def _grid_offsets(surface):
    """20 offsets strictly between 0 and xi* in the flow direction (up to 1 without xi*)."""
    direction, watched = collapse.focal_blocks(surface)
    end = min(abs(off) for off in watched.values()) if watched else 1.0
    return (direction or 1) * np.linspace(0.0, end, 22)[1:-1]


class TestKernel:
    """The integrator's math-scalar kernel against the numpy formulas it replaces."""

    def test_rhs_matches_mean_curvature(self):
        for label, surface in verification.builtin_grid():
            fun = flow_ode._kernel(surface)
            for xi in _grid_offsets(surface):
                h = mean_curvature(surface, float(xi))
                got = fun(float(xi))
                assert abs(got - h) <= 4 * math.ulp(max(1.0, abs(h))), (label, xi, got, h)

    def test_rhs_is_finite_at_the_focal_offset(self):
        # Trial steps land on or past xi*; the clamped denominators keep H finite.
        for surface in (make_euclidean_cylinder(2, 2, 1.0), make_sphere_umbilic(2, 1.0),
                        make_hyperbolic_umbilic(2, 2.0)):
            _, watched = collapse.focal_blocks(surface)
            fun = flow_ode._kernel(surface)
            for xi_star in watched.values():
                assert math.isfinite(fun(xi_star))


def _scipy_reference(surface, t_end, opts=DEFAULT_OPTIONS):
    """scipy's solve_ivp(method="DOP853") on the same kernel and options, with no event."""
    fun = flow_ode._kernel(surface)
    return scipy.integrate.solve_ivp(
        lambda t, y: [fun(float(y[0]))], (0.0, t_end), [0.0], method="DOP853",
        rtol=opts.rel_tol, atol=opts.abs_tol, dense_output=True,
    )


def _assert_agrees_with_scipy(surface, t_end, ts, opts=DEFAULT_OPTIONS):
    """integrate's xi at ``ts`` within rel_tol * max|xi| of scipy's run to the
    same end time; returns both runs."""
    prof = integrate(surface, t_end, opts)
    ref = _scipy_reference(surface, float(prof.times[-1]), opts)
    assert ref.status == 0 and ref.t[-1] == prof.times[-1]
    want = ref.sol(ts)[0]
    assert np.max(np.abs(prof.xi(ts) - want)) <= opts.rel_tol * np.max(np.abs(want))
    return prof, ref


class _Form(dict):
    """A linear form {symbol: coefficient}, for reading the coefficients of the step."""

    def __add__(self, other):
        out = _Form(self)
        for key, c in other.items():
            out[key] = out.get(key, 0.0) + c
        return out

    def __sub__(self, other):
        return self + other * -1.0

    def __mul__(self, c):
        return _Form({key: v * c for key, v in self.items()})

    __rmul__ = __mul__


def _bits(x, n=None, **extra):
    """The bytes of x's coefficients: a form's of k_0..k_{n-1}, after checking
    that its other symbols are exactly ``extra``; an array's as they are."""
    if n is not None:
        assert {key: c for key, c in x.items() if key not in range(n)} == extra
        x = [x.get(j, 0.0) for j in range(n)]
    return np.asarray(x, dtype=float).tobytes()


class TestDriver:
    """The float-scalar DOP853 loop against scipy's solve_ivp on the same kernel."""

    def test_tableau_is_scipys(self):
        # Run the written-out step on linear forms: each stage's argument, the
        # new value, the error sums and the interpolant terms carry their
        # coefficients, which must be scipy's table bit for bit.
        method = scipy.integrate.DOP853
        args = []

        def fun(x):
            args.append(x)
            return _Form({len(args): 1.0})

        y = _Form({"y": 1.0})
        y_new, k12, err5, err3, k = flow_ode._attempt(fun, y, _Form({0: 1.0}), 1.0)
        rows = [*flow_ode._dense(fun, y, 1.0, *k)]
        assert len(args) == 15 and args[11] is y_new and k12 == {12: 1.0}
        for s, x in enumerate(args[:11], start=1):
            assert _bits(x, s, y=1.0) == _bits(method.A[s, :s])
        for i, x in enumerate(args[12:]):
            assert _bits(x, 13 + i, y=1.0) == _bits(method.A_EXTRA[i, :13 + i])
        assert _bits(y_new, 12, y=1.0) == _bits(method.B)
        assert (_bits(err5, 13), _bits(err3, 13)) == (_bits(method.E5), _bits(method.E3))
        assert [_bits(r, 16) for r in rows] == [_bits(r) for r in method.D]
        assert method.n_stages == 12 and method.error_estimator_order == 7

    def test_integration_leaves_scipy_unloaded(self):
        # The coefficient table is written into the step, so an integration
        # that ends at the collapse stop loads no scipy module at all.
        code = """
import math, sys
import isoflow
prof = isoflow.integrate(isoflow.make_sphere_umbilic(2, 1.0), 1.0)
assert math.isfinite(prof.t_star)
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
"""
        src = os.path.dirname(os.path.dirname(flow_ode.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_matches_scipy_on_grid(self):
        # At the 200 times of the oracle-agreement check, and over the
        # full_output window, which ends at the collapse stop.
        stops = 0
        for label, surface in verification.builtin_grid():
            t_star = resolve_profile(surface).t_star
            ts = np.linspace(0.0, verification._window_end(t_star), 200)
            if surface.is_minimal:  # stationary: integrate runs no solver
                assert np.all(integrate(surface, ts[-1]).xi(ts) == 0.0), label
                continue
            _assert_agrees_with_scipy(surface, ts[-1], ts)
            if math.isfinite(t_star):
                t_stop = t_star - _limit_eval_offset(t_star)
                prof, _ = _assert_agrees_with_scipy(surface, 2.0 * t_star,
                                                    np.linspace(0.0, 0.999 * t_stop, 200))
                stops += math.isfinite(prof.t_star)
        assert stops >= 40

    def test_backward_run(self):
        prof, _ = _assert_agrees_with_scipy(make_sphere_product(1, 2, 2.0), -3.0,
                                            np.linspace(0.0, -3.0, 200))
        assert prof.times[-1] == -3.0 and prof.t_domain == (-3.0, 0.0)

    def test_counters_add_up_to_nfev(self):
        for label, surface in verification.builtin_grid():
            t_star = resolve_profile(surface).t_star
            prof = integrate(surface, verification._window_end(t_star))
            if surface.is_minimal:
                assert prof.nfev == 0
                continue
            # 2 calls pick the first step and 12 per attempt; the first read
            # inside a step builds the interpolant, 3 calls per accepted step.
            steps = prof.accepted_steps + prof.rejected_steps
            assert prof.nfev == 2 + 12 * steps, label
            prof.xi(_inside(prof))
            assert prof.nfev == 2 + 12 * steps + 3 * prof.accepted_steps, label
            assert len(prof.times) == prof.accepted_steps + 1, label


class TestStepControl:
    """Gustafsson's predictive step toward a focal offset, scipy's controller elsewhere."""

    def test_collapsing_runs_reject_few_steps(self):
        # Without the predictive step, these runs reject about every other attempt.
        attempts = rejected = 0
        for _, surface in verification.builtin_grid():
            t_star = resolve_profile(surface).t_star
            if not math.isfinite(t_star):
                continue
            # The oracle-agreement window and the full_output window.
            for t_end in (verification._window_end(t_star), 2.0 * estimate_tstar(surface)):
                prof = integrate(surface, t_end)
                attempts += prof.accepted_steps + prof.rejected_steps
                rejected += prof.rejected_steps
        assert attempts > 1000 and rejected <= 0.02 * attempts

    def test_sphere_umbilic_collapse_rejects_at_most_two_steps(self, capsys):
        assert cli.main(["collapse", "--family", "sphere-umbilic", "--n", "3",
                         "--kappa", "2"]) == 0
        counters = json.loads(capsys.readouterr().out)["ode"]["integrator"]
        assert counters["rejected_steps"] <= 2

    def test_oracle_agreement_times_match_the_closed_form(self):
        for label, surface in verification.builtin_grid():
            if surface.is_minimal:
                continue
            closed = resolve_profile(surface)
            ts = np.linspace(0.0, verification._window_end(closed.t_star), 200)
            want = closed.xi(ts)
            got = integrate(surface, ts[-1]).xi(ts)
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want)), label

    @pytest.mark.parametrize("surface, t_end, counters", [
        (make_hyperbolic_umbilic(2, 0.5), 10.0, (518, 32, 3)),  # eternal
        (make_sphere_product(1, 2, 2.0), -3.0, (467, 31, 0)),  # backward
    ])
    def test_runs_without_a_focal_target_ahead_keep_scipys_steps(self, surface, t_end,
                                                                  counters):
        prof = integrate(surface, t_end)
        prof.xi(_inside(prof))  # scipy's counts are those with dense output
        assert (prof.nfev, prof.accepted_steps, prof.rejected_steps) == counters


if sys.version_info < (3, 12):
    def _dot(a, k):
        return sum(map(mul, a, k))
else:  # sum() adds floats with compensation from 3.12 on; add as 3.11 did
    def _dot(a, k):
        return functools.reduce(add, map(mul, a, k), 0)


def _reference_fun(surface, floor=1e-14):
    """The right-hand side as one loop that dispatches on each block's form at every call."""
    kbar = surface.space_form.curvature

    def consts(k):
        if kbar == 0:
            return "flat", 0.0, 1.0
        if kbar == 1:
            return "sphere", math.atan2(1.0, k), math.sqrt(1.0 + k * k)
        if abs(k) > 1.0:
            return "coth", math.atanh(1.0 / k), math.sqrt(k * k - 1.0)
        return ("tanh", math.atanh(k), math.inf) if abs(k) < 1.0 else ("const", 0.0, math.inf)

    blocks = [(b.mult, b.kappa, form, anchor, scale, floor / scale if form == "coth" else floor)
              for b in surface.blocks for form, anchor, scale in [consts(b.kappa)]]

    def fun(xi):
        if kbar == 1:
            sx, cx = math.sin(xi), math.cos(xi)
        total = 0
        for m, k, form, anchor, scale, lim in blocks:
            if form == "sphere":
                num, den = sx + k * cx, scale * math.sin(anchor - xi)
            elif form == "coth":
                num, den = 1.0, math.tanh(anchor - xi)
            elif form == "flat":
                num, den = k, 1.0 - k * xi
            else:
                num, den = (math.tanh(anchor - xi) if form == "tanh" else k), 1.0
            if abs(den) < lim:
                den = math.copysign(lim, den if den != 0.0 else 1.0)
            total += m * (num / den)
        return total

    return fun


class _ReferenceRun(NamedTuple):
    times: list
    xi_values: list
    steps: list  # the h of each step, as the loop computed it
    coeffs: list
    nfev: int
    accepted: int
    rejected: int


def _reference_solve_ivp(fun, t_end, opts, predictive=False):
    """The DOP853 loop on scipy's table, with every stage sum as sum(map(mul, a, k)).

    Its step control is scipy's; with ``predictive``, an accepted step after
    the first also proposes Gustafsson's step, and the smaller one is taken.
    """
    method = scipy.integrate.DOP853
    stages = [method.A[s, :s].tolist() for s in range(1, method.n_stages)]
    b, e5, e3 = method.B.tolist(), method.E5.tolist(), method.E3.tolist()
    extra, d = method.A_EXTRA.tolist(), method.D.tolist()
    exponent = -1.0 / 8
    rtol, atol = opts.rel_tol, opts.abs_tol
    sign, span = math.copysign(1.0, t_end), abs(t_end)
    f = fun(0.0)
    h0 = min(1e-6, span)
    d1 = abs(f / atol)
    d2 = abs((fun(h0 * sign * f) - f) / atol) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h_abs, span)

    t, y, nfev, accepted, rejected = 0.0, 0.0, 2, 0, 0
    times, xis, steps, coeffs = [0.0], [0.0], [], []
    last = None  # (h, error norm) of the last accepted step
    while True:
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailureError("step size below 10 ulp of t")
            t_new = t + h_abs * sign
            if sign * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k = [f]
            for a in stages:
                k.append(fun(y + _dot(a, k) * h))
            y_new = y + h * _dot(b, k)
            k.append(fun(y_new))
            nfev += 12
            scale = atol + max(abs(y), abs(y_new)) * rtol
            err5, err3 = _dot(e5, k) / scale, _dot(e3, k) / scale
            err5, err3 = err5 * err5, err3 * err3
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt(err5 + 0.01 * err3)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** exponent)
                proposal = h_abs * (min(1, factor) if retried else factor)
                if predictive and last and last[1] > 0 < error_norm:
                    ratio = factor * (h_abs / last[0]) * (last[1] / error_norm) ** 0.125
                    proposal = min(proposal, h_abs * max(0.2, ratio))
                last = (h_abs, error_norm)
                h_abs = proposal
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            retried = True
            rejected += 1

        accepted += 1
        for a in extra:
            k.append(fun(y + _dot(a, k) * h))
        nfev += 3
        dy = y_new - y
        coef = (dy, h * f - dy, 2 * dy - h * (k[12] + f), *(h * _dot(r, k) for r in d))
        steps.append(h)
        coeffs.append(coef)
        t, y, f = t_new, y_new, k[12]
        times.append(t)
        xis.append(y)
        if sign * (t - t_end) >= 0:
            return _ReferenceRun(times, xis, steps, coeffs, nfev, accepted, rejected)


def _inside(prof):
    """A time strictly inside the first step of a run: reading it builds the interpolant."""
    return 0.5 * (prof.times[0] + prof.times[1])


def _two_branch_xi(prof, t):
    """Reference: the interpolant of each time's step, found in the times as
    stored on a forward run and in the reversed times on a backward one."""
    ts, last = prof.times, len(prof._coeffs) - 1
    if ts[-1] >= ts[0]:
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
    else:
        seg = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
    x = (t - ts[seg]) / (ts[seg + 1] - ts[seg])
    return flow_ode._interpolant(prof._coeffs[seg].T, x, prof.xi_values[seg])


class TestStraightLine:
    """The written-out stages and the per-ambient kernel change no bit."""

    def test_bits_equal_the_reference_loop(self):
        # Both windows the engines integrate: the oracle-agreement window
        # (0.99 t* or 10) and the full_output window (2 t* or 50), which a
        # collapsing flow ends at t* - _limit_eval_offset(t*).
        stops = 0
        for label, surface in verification.builtin_grid():
            if surface.is_minimal:  # stationary: integrate runs no solver
                continue
            t_star = estimate_tstar(surface)
            windows = (verification._window_end(resolve_profile(surface).t_star),
                       2.0 * t_star if math.isfinite(t_star) else ETERNAL_CHECK_TIME)
            for t_end in windows:
                prof = integrate(surface, t_end)
                prof.xi(_inside(prof))
                end = t_end if t_end < t_star else t_star - _limit_eval_offset(t_star)
                ref = _reference_solve_ivp(_reference_fun(surface), end, DEFAULT_OPTIONS,
                                           predictive=math.isfinite(t_star))
                key = (label, t_end)
                assert prof.times.tobytes() == np.array(ref.times).tobytes(), key
                assert prof.xi_values.tobytes() == np.array(ref.xi_values).tobytes(), key
                assert np.diff(prof.times).tobytes() == np.array(ref.steps).tobytes(), key
                assert prof._coeffs.tobytes() == np.array(ref.coeffs).tobytes(), key
                assert (prof.nfev, prof.accepted_steps, prof.rejected_steps) == (
                    ref.nfev, ref.accepted, ref.rejected), key
                if end < t_end:  # the run ended at the collapse stop
                    assert prof.t_star == t_star, key
                else:
                    assert prof.t_star in (None, math.inf), key
                stops += end < t_end
        assert stops >= 40

    def test_interpolation_equals_the_two_branch_search(self):
        # At every node, between nodes and at 257 times of each run, forward
        # and backward, over the grid.
        for label, surface in verification.builtin_grid():
            for t_end in (-3.0, -0.3, 0.5, 2.0):
                prof = integrate(surface, t_end)
                prof.xi(_inside(prof))
                ts = np.concatenate([prof.times, 0.5 * (prof.times[1:] + prof.times[:-1]),
                                     np.linspace(0.0, prof.times[-1], 257)])
                expected = np.zeros_like(ts) if prof._coeffs is None else _two_branch_xi(prof, ts)
                assert prof.xi(ts).tobytes() == expected.tobytes(), (label, t_end)
                assert [prof.xi(t) for t in ts[:3]] == expected[:3].tolist(), (label, t_end)

    def test_rhs_equals_the_dispatch_loop(self):
        # Every family and the H^n blocks with |k| = 1 (horosphere) and |k| < 1.
        surfaces = [s for _, s in verification.builtin_grid()]
        surfaces += [make_horosphere(3, -1.0), make_hyperbolic_umbilic(2, -0.5)]
        for surface in surfaces:
            fun = flow_ode._kernel(surface)
            ref = _reference_fun(surface)
            for xi in np.linspace(-3.0, 3.0, 241).tolist():
                assert fun(xi) == ref(xi), (surface.family, xi)


def _some_grid_surfaces():
    """Every fifth non-minimal grid surface: each ambient, collapsing, eternal and flipped."""
    return [(label, surface) for label, surface in verification.builtin_grid()
            if not surface.is_minimal][::5]


class TestDeferredInterpolant:
    """A run keeps its stages; the first read inside a step builds every step's interpolant."""

    def test_a_collapse_run_builds_it_only_when_read_inside_a_step(self):
        for label, surface in _some_grid_surfaces():
            t_star, _, prof = estimate_tstar(surface, full_output=True)
            report = repr(collapse.analyze(surface, prof))  # reads the run's last node
            attempts = prof.accepted_steps + prof.rejected_steps
            assert prof._coeffs is None and prof.nfev == 2 + 12 * attempts, label
            ref = _reference_solve_ivp(_reference_fun(surface), float(prof.times[-1]),
                                       DEFAULT_OPTIONS, predictive=math.isfinite(t_star))
            t = _inside(prof)
            x = (t - ref.times[0]) / (ref.times[1] - ref.times[0])
            assert prof.xi(t) == flow_ode._interpolant(ref.coeffs[0], x, ref.xi_values[0]), label
            assert prof.nfev == 2 + 12 * attempts + 3 * prof.accepted_steps == ref.nfev, label
            assert prof._coeffs.tobytes() == np.array(ref.coeffs).tobytes(), label
            assert prof._stages is None, label
            assert repr(collapse.analyze(surface, prof)) == report, label

    def test_reads_at_nodes_build_nothing_and_keep_their_bits(self):
        runs = [(case, t_end) for case in _some_grid_surfaces() for t_end in (-0.3, 2.0)]
        for (label, surface), t_end in runs:
            prof = integrate(surface, t_end)
            nfev, ends = prof.nfev, prof.times[[0, 1, -1]].tolist()
            at_nodes, scalars = prof.xi(prof.times), [prof.xi(t) for t in ends]
            assert prof._coeffs is None and prof.nfev == nfev, (label, t_end)
            prof.xi(_inside(prof))
            assert prof.nfev == nfev + 3 * prof.accepted_steps, (label, t_end)
            expected = _two_branch_xi(prof, prof.times)
            assert at_nodes.tobytes() == expected.tobytes(), (label, t_end)
            assert scalars == [prof.xi(t) for t in ends], (label, t_end)

    def test_the_state_kept_per_step_is_bounded(self):
        # Before the first read inside a step a run keeps its time, xi and 11
        # stage values (104 bytes a step), after it its time, xi and 7
        # interpolant terms (72 bytes); array growth adds a few percent.
        surface = make_hyperbolic_umbilic(2, 0.5)
        integrate(surface, 1.0).xi(0.5)  # allocations made once per process
        tracemalloc.start()
        try:
            prof = integrate(surface, 1e4)  # eternal: about 3,100 steps
            held, peak = tracemalloc.get_traced_memory()
            steps = prof.accepted_steps
            assert steps > 3000
            assert held < 116 * steps and peak < 136 * steps
            short = integrate(surface, 1e3)  # a shorter run to build, as tracing slows it
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            short.xi(_inside(short))
            grown, peak = (n - before for n in tracemalloc.get_traced_memory())
            assert short.accepted_steps > 300
            assert grown < -24 * short.accepted_steps and peak < 96 * short.accepted_steps
        finally:
            tracemalloc.stop()
