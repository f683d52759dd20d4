"""Numerical ground truth: integrate the parallel-flow ODE for any valid surface.

The flow offset solves the autonomous scalar ODE

    xi'(t) = sum_i m_i (kbar s(xi) + kappa_i c(xi)) / (c(xi) - kappa_i s(xi)),
    xi(0) = 0,

which is exactly the mean curvature of the parallel surface at offset xi.
Integration uses an adaptive high-order embedded Runge-Kutta pair with dense
output.  A singularity guard watches the metric factors of the blocks whose
factor has a finite zero in the flow direction and stops when the smallest
one drops below ``singularity_guard``; the collapse time is then refined by
a quadrature of dt = d(xi)/H from the guard stop to the analytic focal
offset of the nearest block (the blow-up is a simple zero of the
denominator, so the tail integrand is smooth after a square-root
substitution).  A guard stop already past that offset is an integration
failure.

Distinct trajectories share no mutable state and may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .catalog import MINIMAL_TOL, IsoparametricSurface, mean_curvature
from .errors import IntegrationFailureError, InvalidInputError
from .spaceform import focal_offset, parallel_metric_factor

# Horizon for declaring a flow free of finite-time collapse.
DEFAULT_HORIZON = 50.0

_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


@dataclass(frozen=True)
class OdeOptions:
    """Error control and guard settings for the integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    singularity_guard: float = 1e-9

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "singularity_guard"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive")
        if self.rel_tol < 1e-14:
            raise InvalidInputError("rel_tol below 1e-14 is not resolvable in doubles")


DEFAULT_OPTIONS = OdeOptions()


def rhs(surface: IsoparametricSurface, xi):
    """Right-hand side of the flow ODE; identical to catalog.mean_curvature."""
    return mean_curvature(surface, xi)


def _kappa_hat_total(kbar: int, kappa: float, xi: float, floor: float = 1e-14) -> float:
    """Evolved curvature through the stable angle-addition forms, never raising.

    The denominator is clamped at ``floor`` so trial steps that overshoot the
    focal point stay finite and get rejected by step control instead of
    aborting the solve.
    """
    k = kappa
    if kbar == 0:
        den = 1.0 - k * xi
        if abs(den) < floor:
            den = math.copysign(floor, den if den != 0.0 else 1.0)
        return k / den
    if kbar == 1:
        delta = math.atan2(1.0, k) - xi
        sd = math.sin(delta)
        lim = floor / math.sqrt(1.0 + k * k)
        if abs(sd) < lim:
            sd = math.copysign(lim, sd if sd != 0.0 else 1.0)
        return math.cos(delta) / sd
    ak = abs(k)
    if ak == 1.0:
        return k
    if ak < 1.0:
        return math.tanh(math.atanh(k) - xi)
    delta = math.atanh(1.0 / k) - xi
    sd = math.sinh(delta)
    lim = floor / math.sqrt(k * k - 1.0)
    if abs(sd) < lim:
        sd = math.copysign(lim, sd if sd != 0.0 else 1.0)
    return math.cosh(delta) / sd


def _rhs_clamped(surface: IsoparametricSurface):
    """Total version of the RHS for use inside the integrator."""
    kbar = surface.space_form.curvature
    terms = [(b.mult, b.kappa) for b in surface.blocks]

    def f(xi: float) -> float:
        return sum(m * _kappa_hat_total(kbar, k, xi) for m, k in terms)

    return f


@dataclass
class NumericProfile:
    """Dense numeric solution xi(t) with its termination record.

    ``t_star`` is the refined collapse-time estimate when the guard fired,
    +inf when the surface is stationary, and None when integration simply
    reached ``t_end`` without establishing either.
    """

    surface: IsoparametricSurface
    times: np.ndarray
    xi_values: np.ndarray
    termination: str  # "reached_t_end" | "hit_singularity"
    t_domain: tuple
    t_star: float | None = None
    t_star_bracket: tuple | None = None
    t_star_error_bound: float | None = None
    _dense: object = None

    kind = "numeric"

    def xi(self, t):
        t_arr = np.asarray(t, dtype=float)
        lo, hi = self.t_domain
        if np.any(t_arr < lo - 1e-15) or np.any(t_arr > hi + 1e-15):
            raise InvalidInputError(
                f"time {t!r} outside the integrated domain [{lo}, {hi}]"
            )
        if self._dense is None:
            out = np.zeros_like(t_arr)
        else:
            out = self._dense(np.clip(t_arr, lo, hi))[0]
        if np.ndim(t) == 0:
            return float(out)
        return np.asarray(out, dtype=float)


def _watched_blocks(surface: IsoparametricSurface, direction: int):
    """Indices and offsets of blocks whose metric factor vanishes in this direction."""
    sf = surface.space_form
    out = []
    for i, b in enumerate(surface.blocks):
        off = focal_offset(sf, b.kappa, direction)
        if off is not None:
            out.append((i, off))
    return out


def integrate(surface: IsoparametricSurface, t_end: float, opts: OdeOptions = DEFAULT_OPTIONS) -> NumericProfile:
    """Integrate the flow ODE from xi(0) = 0 to t_end (either sign).

    Stops early with termination "hit_singularity" when the guard triggers,
    recording a bracketing interval and refined estimate for the collapse
    time.  Raises IntegrationFailureError if the solver gives up first.
    """
    t_end = float(t_end)
    if not math.isfinite(t_end):
        raise InvalidInputError(f"t_end must be finite, got {t_end!r}")
    h0 = surface.mean_curvature_at_zero
    direction = 0 if abs(h0) < MINIMAL_TOL else (1 if h0 > 0 else -1)

    if t_end == 0.0 or direction == 0:
        # Stationary flow or empty window: xi stays identically zero.
        lo, hi = min(0.0, t_end), max(0.0, t_end)
        times = np.array([lo, hi]) if t_end != 0.0 else np.array([0.0])
        return NumericProfile(
            surface=surface,
            times=times,
            xi_values=np.zeros_like(times),
            termination="reached_t_end",
            t_domain=(lo, hi),
            t_star=math.inf if direction == 0 else None,
        )

    events = None
    watched = []
    if t_end > 0:
        watched = _watched_blocks(surface, direction)
        if watched:
            sf = surface.space_form
            kappas = [surface.blocks[i].kappa for i, _ in watched]
            guard_level = opts.singularity_guard

            def guard(t, y):
                return min(
                    parallel_metric_factor(sf, k, y[0]) for k in kappas
                ) - guard_level

            guard.terminal = True
            guard.direction = -1
            events = [guard]

    f = _rhs_clamped(surface)
    sol = solve_ivp(
        lambda t, y: [f(y[0])],
        (0.0, t_end),
        [0.0],
        method="DOP853",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        max_step=opts.max_step,
        dense_output=True,
        events=events,
    )
    if sol.status == -1:
        raise IntegrationFailureError(
            f"integration failed before the guard triggered: {sol.message}"
        )

    if sol.status == 1 and events is not None and len(sol.t_events[0]):
        t_stop = float(sol.t_events[0][0])
        xi_stop = float(sol.sol(t_stop)[0])
        t_star, bracket, bound = _refine_tstar(surface, direction, watched, t_stop, xi_stop, opts)
        lo, hi = 0.0, t_stop
        termination = "hit_singularity"
    else:
        # No focal target in the flow direction means no collapse, ever.
        t_star = math.inf if (t_end > 0 and not watched) else None
        bracket, bound = None, None
        lo, hi = min(0.0, t_end), max(0.0, t_end)
        termination = "reached_t_end"

    return NumericProfile(
        surface=surface,
        times=np.asarray(sol.t, dtype=float),
        xi_values=np.asarray(sol.y[0], dtype=float),
        termination=termination,
        t_domain=(lo, hi),
        t_star=t_star,
        t_star_bracket=bracket,
        t_star_error_bound=bound,
        _dense=sol.sol,
    )


def _refine_tstar(surface, direction, watched, t_stop, xi_stop, opts):
    """Refine the collapse time past the guard stop.

    The collapse offset xi* is the analytic focal offset of the nearest
    watched block; the remaining time is the quadrature of d(xi)/H over
    [xi_stop, xi*] with the square-root endpoint substitution
    zeta = xi* - direction * u^2.
    """
    _, xi_star = min(watched, key=lambda pair: abs(pair[1]))
    if direction * (xi_star - xi_stop) < 0.0:
        raise IntegrationFailureError(
            f"the guard stopped at xi = {xi_stop!r}, past the focal offset {xi_star!r}"
        )

    f = _rhs_clamped(surface)
    u0 = math.sqrt(abs(xi_star - xi_stop))
    u = 0.5 * u0 * (_GAUSS_NODES + 1.0)
    w = 0.5 * u0 * _GAUSS_WEIGHTS
    dt_tail = 0.0
    for ui, wi in zip(u, w):
        zeta = xi_star - direction * ui * ui
        dt_tail += wi * 2.0 * ui / abs(f(zeta))

    t_star = t_stop + dt_tail
    bracket = (t_stop, t_stop + 2.0 * dt_tail + 1e-12)
    bound = max(1e-10, 100.0 * opts.rel_tol * max(1.0, abs(t_stop)))
    return t_star, bracket, bound


def estimate_tstar(
    surface: IsoparametricSurface,
    opts: OdeOptions = DEFAULT_OPTIONS,
    horizon: float = DEFAULT_HORIZON,
    full_output: bool = False,
):
    """Collapse-time estimate from the ODE alone, or +inf for eternal flows.

    Integrates with the singularity guard, widening the window until the
    guard fires; a flow with no guard trigger up to ``horizon`` and bounded
    speed there is reported eternal (+inf).  At default tolerances the
    refined estimate carries an absolute error bound of 1e-8 for unit-scale
    collapse times (``full_output=True`` returns estimate, error bound,
    bracket and the underlying profile).
    """
    h0 = surface.mean_curvature_at_zero
    if abs(h0) < MINIMAL_TOL:
        profile = integrate(surface, horizon, opts)
        return (math.inf, 0.0, None, profile) if full_output else math.inf
    direction = 1 if h0 > 0 else -1

    if not _watched_blocks(surface, direction):
        profile = integrate(surface, horizon, opts)
        if profile.termination != "reached_t_end":
            raise IntegrationFailureError(
                "flow without a focal target still triggered the guard"
            )
        return (math.inf, 0.0, None, profile) if full_output else math.inf

    t_try = min(1.0, horizon)
    while True:
        profile = integrate(surface, t_try, opts)
        if profile.termination == "hit_singularity":
            break
        if t_try >= horizon:
            return (math.inf, 0.0, None, profile) if full_output else math.inf
        t_try = min(4.0 * t_try, horizon)

    if full_output:
        return profile.t_star, profile.t_star_error_bound, profile.t_star_bracket, profile
    return profile.t_star
