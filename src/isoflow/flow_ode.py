"""Numerical ground truth: integrate the parallel-flow ODE for any valid surface.

The flow offset solves the autonomous scalar ODE

    xi'(t) = sum_i m_i (kbar s(xi) + kappa_i c(xi)) / (c(xi) - kappa_i s(xi)),
    xi(0) = 0,

which is exactly the mean curvature H(xi) of the parallel surface at offset
xi.  Being autonomous, it gives the collapse time as one integral,
t* = int_0^{xi*} d(zeta) / H(zeta) up to the analytic focal offset xi* of the
nearest block, evaluated by a graded composite Gauss-Legendre rule.  The
profile xi(t) comes from an adaptive high-order embedded Runge-Kutta pair with
dense output.  Its singularity guard on the metric factors of the blocks with
a finite zero in the flow direction only ends the integration (a stop already
past xi* is an integration failure); it does not decide t*.

Distinct trajectories share no mutable state and may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface, mean_curvature
from .collapse import ETERNAL_CHECK_TIME
from .errors import IntegrationFailureError, InvalidInputError
from .spaceform import focal_offset

# Gauss-Legendre rules of 16 and 32 nodes; _NODES holds both node sets on
# [0, 2], so zeta = lo + half * node keeps its relative precision near lo = 0.
_X16, _W16 = np.polynomial.legendre.leggauss(16)
_X32, _W32 = np.polynomial.legendre.leggauss(32)
_NODES = np.concatenate([_X16, _X32]) + 1.0


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


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported on first use: most of the package's import time."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(*args, **kwargs)


def rhs(surface: IsoparametricSurface, xi):
    """Right-hand side of the flow ODE; identical to catalog.mean_curvature."""
    return mean_curvature(surface, xi)


def _kernel(surface: IsoparametricSurface, watched, level: float, floor: float = 1e-14):
    """solve_ivp's right-hand side fun(t, y) and guard event for one surface, in math scalars.

    Each block's constants are formed once: its anchor atan2(1, k), atanh(1/k)
    or atanh(k), its scale sqrt(1+k^2) or sqrt(k^2-1), and the clamp limit
    floor / scale of its denominator.  The clamp keeps trial steps that
    overshoot the focal point finite, so step control rejects them instead of
    aborting the solve; coth is 1/tanh, as tanh saturates where sinh
    overflows.  The guard is the least squared metric factor of the watched
    blocks less ``level``, formed as parallel_metric_factor forms it.
    """
    kbar = surface.space_form.curvature

    def consts(k):
        """(form, anchor, scale): kappa_hat is cot, coth or tanh of anchor - xi."""
        if kbar == 0:
            return "flat", 0.0, 1.0
        if kbar == 1:
            return "cot", math.atan2(1.0, k), math.sqrt(1.0 + k * k)
        if abs(k) > 1.0:
            return "coth", math.atanh(1.0 / k), math.sqrt(k * k - 1.0)
        return ("tanh", math.atanh(k), math.inf) if abs(k) < 1.0 else ("const", 0.0, math.inf)

    blocks = [(b.mult, b.kappa, form, anchor, floor / scale)
              for b in surface.blocks for form, anchor, scale in [consts(b.kappa)]]

    def fun(t, y):
        xi = float(y[0])
        total = 0
        for m, k, form, anchor, lim in blocks:
            if form == "cot":
                num, den = math.cos(anchor - xi), math.sin(anchor - xi)
            elif form == "coth":
                num, den = 1.0, math.tanh(anchor - xi)
            elif form == "flat":
                num, den = k, 1.0 - k * xi
            else:
                num, den = (math.tanh(anchor - xi) if form == "tanh" else k), 1.0
            if abs(den) < lim:
                den = math.copysign(lim, den if den != 0.0 else 1.0)
            total += m * (num / den)
        return [total]

    # np.sinh: math.sinh differs from it in the last bit, and the event times
    # depend on the guard being parallel_metric_factor's value.
    sin_like = math.sin if kbar == 1 else np.sinh
    focal = [(k, *consts(k)) for k, _ in watched]

    def guard(t, y):
        xi = float(y[0])
        dens = [1.0 - k * xi if kbar == 0 else s * sin_like(a - xi) for k, _, a, s in focal]
        return min(d * d for d in dens) - level

    guard.terminal = True
    guard.direction = -1
    return fun, guard


@dataclass
class NumericProfile:
    """Dense numeric solution xi(t) with its termination record.

    ``t_star`` is the quadrature collapse time when the guard fired, +inf
    when the flow has no focal target, and None when integration simply
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


def _focal_blocks(surface: IsoparametricSurface):
    """Flow direction (+1, -1, or 0 when minimal) and the (kappa, focal offset)
    pairs of the blocks whose metric factor vanishes in that direction."""
    if surface.is_minimal:
        return 0, []
    direction = 1 if surface.mean_curvature_at_zero > 0 else -1
    sf = surface.space_form
    pairs = [(b.kappa, focal_offset(sf, b.kappa, direction)) for b in surface.blocks]
    return direction, [(k, off) for k, off in pairs if off is not None]


def _collapse_time(surface: IsoparametricSurface, direction: int, watched):
    """Collapse time t* = int_0^{xi*} d(zeta) / H(zeta) and its error estimate.

    +inf without a focal target.  1/H vanishes linearly at xi*, a smooth end;
    near-minimal surfaces put a zero of H near -H(0)/H'(0), close to 0.  The
    panels are graded (ratio 4) toward zeta = 0 until the innermost is
    narrower than a quarter of that distance; in a curved ambient none is
    wider than 0.5 (hyperbolic kappa -> 1+), while Euclidean 1/H is linear.
    The error estimate is |Q32 - Q16|, floored at a few ulp of t*.
    """
    if not watched:
        return math.inf, 0.0
    kbar = surface.space_form.curvature
    slope = sum(b.mult * (b.kappa * b.kappa + kbar) for b in surface.blocks)
    near = abs(surface.mean_curvature_at_zero / slope) if slope else math.inf
    cuts = [min(abs(off) for _, off in watched)]
    while cuts[-1] >= 0.25 * near and len(cuts) < 60:  # near = 0 if slope overflows
        cuts.append(0.25 * cuts[-1])
    width = 0.5 if kbar else cuts[0]
    breaks = [0.0]
    for hi in reversed(cuts):
        lo = breaks[-1]
        breaks.extend(np.linspace(lo, hi, math.ceil((hi - lo) / width) + 1)[1:])
    lo = np.array(breaks[:-1])[:, None]
    half = 0.5 * np.diff(breaks)[:, None]
    inv_h = direction / mean_curvature(surface, direction * (lo + half * _NODES))
    q16 = float(np.sum(half * _W16 * inv_h[:, :16]))
    q32 = float(np.sum(half * _W32 * inv_h[:, 16:]))
    return q32, max(abs(q32 - q16), 4.0 * math.ulp(q32))


def integrate(surface: IsoparametricSurface, t_end: float, opts: OdeOptions = DEFAULT_OPTIONS) -> NumericProfile:
    """Integrate the flow ODE from xi(0) = 0 to t_end (either sign).

    Stops early with termination "hit_singularity" when the guard triggers;
    the profile then carries the collapse time of ``estimate_tstar`` with its
    error bound and bracket.  Raises IntegrationFailureError if the solver
    gives up first or the guard fired past the focal offset.
    """
    t_end = float(t_end)
    if not math.isfinite(t_end):
        raise InvalidInputError(f"t_end must be finite, got {t_end!r}")
    direction, watched = _focal_blocks(surface)

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

    fun, guard = _kernel(surface, watched, opts.singularity_guard)
    events = [guard] if t_end > 0 and watched else None
    sol = solve_ivp(
        fun,
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
        xi_star = min((off for _, off in watched), key=abs)
        if direction * (xi_star - xi_stop) < 0.0:
            raise IntegrationFailureError(
                f"the guard stopped at xi = {xi_stop!r}, past the focal offset {xi_star!r}"
            )
        t_star, bound = _collapse_time(surface, direction, watched)
        bracket = (t_star - bound, t_star + bound)
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


def estimate_tstar(
    surface: IsoparametricSurface,
    opts: OdeOptions = DEFAULT_OPTIONS,
    full_output: bool = False,
):
    """Collapse time of the flow ODE, or +inf for flows without a focal target.

    The value is the graded Gauss-Legendre quadrature of t* = int_0^{xi*}
    d(zeta) / H(zeta), with the measured |Q32 - Q16| as error bound.
    ``full_output=True`` returns (estimate, error bound, bracket, profile):
    ``integrate`` up to 2 t* (the guard ends it first) or, for an eternal
    flow, up to ``ETERNAL_CHECK_TIME``, where ``collapse.analyze`` reads it.
    Only the profile uses ``opts``.
    """
    t_star, bound = _collapse_time(surface, *_focal_blocks(surface))
    if not full_output:
        return t_star
    t_end = 2.0 * t_star if math.isfinite(t_star) else ETERNAL_CHECK_TIME
    profile = integrate(surface, t_end, opts)
    return t_star, bound, (t_star - bound, t_star + bound), profile
