"""Numerical ground truth: integrate the parallel-flow ODE for any valid surface.

The flow offset solves the autonomous scalar ODE

    xi'(t) = sum_i m_i (kbar s(xi) + kappa_i c(xi)) / (c(xi) - kappa_i s(xi)),
    xi(0) = 0,

which is exactly the mean curvature H(xi) of the parallel surface at offset
xi.  Being autonomous, it gives the collapse time as one integral,
t* = int_0^{xi*} d(zeta) / H(zeta) up to the analytic focal offset xi* of the
nearest block, evaluated by a graded composite Gauss-Legendre rule.

The profile xi(t) comes from DOP853, the 8(5,3) embedded Runge-Kutta pair
with its 7th-order dense output (Hairer, Norsett & Wanner, Solving ODEs I,
II.5-II.6).  ``solve_ivp`` here steps it in Python floats: the tableau is
scipy's and so is the step control, but no step goes through numpy, since on
a scalar ODE scipy's per-step array work costs ten times the right-hand
side.  Its singularity guard is the least signed denominator c - kappa s of
the blocks with a finite zero in the flow direction, less
sqrt(singularity_guard).  Each is 1 at xi = 0 and changes sign at its focal
offset, so a step that jumps past xi* still ends the run.  The guard only
ends the integration (a stop already past xi* is an integration failure); it
does not decide t*.

Distinct trajectories share no mutable state and may run in parallel.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple

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
_EPS = sys.float_info.epsilon


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


def _kernel(surface: IsoparametricSurface, watched, level: float, floor: float = 1e-14):
    """The right-hand side fun(xi) and the guard(xi) of one surface, in math scalars.

    Each block's constants are formed once: its anchor atan2(1, k), atanh(1/k)
    or atanh(k), its scale sqrt(1+k^2) or sqrt(k^2-1), and the clamp limit of
    its denominator.  On the sphere the numerator sin(xi) + k cos(xi) is
    formed directly, as spaceform.parallel_curvature forms it.  The clamp
    keeps trial steps that overshoot the focal point finite, so step control
    rejects them instead of aborting the solve; coth is 1/tanh, as tanh
    saturates where sinh overflows.  The guard is the least signed
    denominator c - kappa s of the watched blocks, formed as
    spaceform.parallel_denominator forms it, less sqrt(level).  Every
    denominator is 1 at xi = 0 and changes sign at its focal offset, so a step
    that jumps past xi* still ends with a negative guard.
    """
    kbar = surface.space_form.curvature

    def consts(k):
        """(form, anchor, scale) of a block's kappa_hat and its denominator."""
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

    # np.sinh: math.sinh differs from it in the last bit, and the stop
    # depends on the guard being parallel_denominator's value.
    sin_like = math.sin if kbar == 1 else np.sinh
    focal = [(k, a, s if kbar == 1 else math.copysign(s, k))
             for k, _ in watched for _, a, s in [consts(k)]]
    root_level = math.sqrt(level)

    def guard(xi):
        dens = (1.0 - k * xi if kbar == 0 else s * sin_like(a - xi) for k, a, s in focal)
        return min(dens) - root_level

    return fun, guard


@functools.cache
def _dop853():
    """DOP853's coefficients as float tuples, read from scipy on the first integration.

    (stages, b, e5, e3, extra, d): the rows of A below the diagonal for
    stages 1-11, the weights, the two error estimators, the rows of the three
    extra stages of the interpolant and its matrix D.  They come from
    scipy/integrate/_ivp/dop853_coefficients.py, the table that
    scipy.integrate.DOP853 reads, loaded from its file: importing
    scipy.integrate would also load that package's Fortran solvers, 2.7 MB of
    resident memory that this loop never calls.
    """
    import importlib.util

    scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
    path = os.path.join(scipy_dir, "integrate", "_ivp", "dop853_coefficients.py")
    spec = importlib.util.spec_from_file_location("dop853_coefficients", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    n = table.N_STAGES

    def rows(a, first):
        return tuple(tuple(row[:s].tolist()) for s, row in enumerate(a, start=first))

    return (rows(table.A[1:n], 1), tuple(table.B.tolist()), tuple(table.E5.tolist()),
            tuple(table.E3.tolist()), rows(table.A[n + 1:], n + 1),
            tuple(map(tuple, table.D.tolist())))


def _interpolant(coef, x, y0):
    """A step's 7-term DOP853 interpolant at x = (t - t_old) / h.

    Evaluated as scipy's Dop853DenseOutput evaluates it, on scalars or arrays.
    """
    value = 0.0
    for i, c in enumerate(reversed(coef)):
        value = (value + c) * (x if i % 2 == 0 else 1.0 - x)
    return value + y0


class _Run(NamedTuple):
    """A DOP853 run: status 0 reached t_end, 1 the guard fired, -1 failed."""

    status: int
    message: str
    times: list
    xi_values: list
    steps: list
    coeffs: list
    nfev: int
    accepted: int
    rejected: int


def solve_ivp(fun, t_end: float, opts: OdeOptions, guard=None) -> _Run:
    """DOP853 for xi' = fun(xi), xi(0) = 0, from t = 0 to t_end, in Python floats.

    The method and its controller are scipy's solve_ivp(method="DOP853") with
    dense output and one terminal event that falls through zero: the initial
    step of select_initial_step, the 12-stage step with the 5th/3rd-order
    error norm, safety 0.9, step factors between 0.2 and 10 (at most 1 right
    after a rejection), exponent -1/8, a minimum step of 10 ulp of t, and
    per accepted step the 7-term interpolant, which costs 3 more stages.  The
    guard is checked at each step end; when it falls to zero the stop is the
    brentq root of the guard on that step's interpolant.  ``nfev`` counts RHS
    calls as scipy does: 2 for the initial step, 12 per attempt, 3 per
    accepted step.
    """
    from scipy.optimize import brentq

    stages, b, e5, e3, extra, d = _dop853()
    exponent = -1.0 / 8  # -1 / (order of the error estimate + 1)
    rtol, atol, max_step = opts.rel_tol, opts.abs_tol, opts.max_step
    sign, span = math.copysign(1.0, t_end), abs(t_end)
    # select_initial_step at y0 = 0, where norm(y0 / scale) = 0 picks h0 = 1e-6.
    f = fun(0.0)
    h0 = min(1e-6, span)
    d1 = abs(f / atol)
    d2 = abs((fun(h0 * sign * f) - f) / atol) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = max(1e-6, h0 * 1e-3)
    else:
        h_abs = (0.01 / max(d1, d2)) ** -exponent
    h_abs = min(100 * h0, h_abs, span, max_step)

    t, y, nfev, accepted, rejected = 0.0, 0.0, 2, 0, 0
    times, xis, steps, coeffs = [0.0], [0.0], [], []
    g = guard(0.0) if guard is not None else None

    def run(status, message=""):
        return _Run(status, message, times, xis, steps, coeffs, nfev, accepted, rejected)

    while True:
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs = max_step if h_abs > max_step else max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                return run(-1, "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * sign
            if sign * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k = [f]
            for a in stages:
                k.append(fun(y + sum(map(mul, a, k)) * h))
            y_new = y + h * sum(map(mul, b, k))
            k.append(fun(y_new))
            nfev += 12
            scale = atol + max(abs(y), abs(y_new)) * rtol
            err5, err3 = sum(map(mul, e5, k)) / scale, sum(map(mul, e3, k)) / scale
            err5, err3 = err5 * err5, err3 * err3
            if err5 == 0 and err3 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt(err5 + 0.01 * err3)
            if error_norm < 1:
                factor = 10 if error_norm == 0 else min(10, 0.9 * error_norm ** exponent)
                h_abs *= min(1, factor) if retried else factor
                break
            h_abs *= max(0.2, 0.9 * error_norm ** exponent)
            retried = True
            rejected += 1

        accepted += 1
        for a in extra:
            k.append(fun(y + sum(map(mul, a, k)) * h))
        nfev += 3
        dy = y_new - y
        coef = (dy, h * f - dy, 2 * dy - h * (k[12] + f), *(h * sum(map(mul, r, k)) for r in d))
        steps.append(h)
        coeffs.append(coef)
        t_old, y_old = t, y
        t, y, f = t_new, y_new, k[12]
        if guard is not None:
            g_new = guard(y)
            if g >= 0 and g_new <= 0:
                root = brentq(lambda s: guard(_interpolant(coef, (s - t_old) / h, y_old)),
                              t_old, t, xtol=4 * _EPS, rtol=4 * _EPS)
                times.append(root)
                xis.append(_interpolant(coef, (root - t_old) / h, y_old))
                return run(1)
            g = g_new
        times.append(t)
        xis.append(y)
        if sign * (t - t_end) >= 0:
            return run(0)


@dataclass
class NumericProfile:
    """Dense numeric solution xi(t) with its termination record and counters.

    ``t_star`` is the quadrature collapse time when the guard fired, +inf
    when the flow has no focal target, and None when integration simply
    reached ``t_end`` without establishing either.  ``nfev``,
    ``accepted_steps`` and ``rejected_steps`` count the DOP853 work;
    ``guard_trigger`` is (t, xi, factor) where the guard stopped the run,
    ``factor`` being the least signed denominator c - kappa s it watched.
    """

    surface: IsoparametricSurface
    times: np.ndarray
    xi_values: np.ndarray
    termination: str  # "reached_t_end" | "hit_singularity"
    t_domain: tuple
    t_star: float | None = None
    t_star_bracket: tuple | None = None
    t_star_error_bound: float | None = None
    nfev: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    guard_trigger: tuple | None = None
    _steps: np.ndarray | None = None  # full length h of each step
    _coeffs: np.ndarray | None = None  # (steps, 7) interpolant terms

    kind = "numeric"

    def xi(self, t):
        t_arr = np.asarray(t, dtype=float)
        lo, hi = self.t_domain
        if np.any(t_arr < lo - 1e-15) or np.any(t_arr > hi + 1e-15):
            raise InvalidInputError(
                f"time {t!r} outside the integrated domain [{lo}, {hi}]"
            )
        if self._coeffs is None:
            out = np.zeros_like(t_arr)
        else:
            out = self._interpolate(np.clip(t_arr, lo, hi))
        if np.ndim(t) == 0:
            return float(out)
        return np.asarray(out, dtype=float)

    def _interpolate(self, t):
        """Each time on the interpolant of its step, chosen as scipy's OdeSolution chooses it."""
        ts, last = self.times, len(self._steps) - 1
        if ts[-1] >= ts[0]:
            seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
        else:
            seg = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
        x = (t - ts[seg]) / self._steps[seg]
        return _interpolant(self._coeffs[seg].T, x, self.xi_values[seg])


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
    run = solve_ivp(fun, t_end, opts, guard if t_end > 0 and watched else None)
    if run.status == -1:
        raise IntegrationFailureError(
            f"integration failed before the guard triggered: {run.message}"
        )

    trigger = None
    if run.status == 1:
        t_stop, xi_stop = run.times[-1], run.xi_values[-1]
        xi_star = min((off for _, off in watched), key=abs)
        if direction * (xi_star - xi_stop) < 0.0:
            raise IntegrationFailureError(
                f"the guard stopped at xi = {xi_stop!r}, past the focal offset {xi_star!r}"
            )
        t_star, bound = _collapse_time(surface, direction, watched)
        bracket = (t_star - bound, t_star + bound)
        lo, hi = 0.0, t_stop
        termination = "hit_singularity"
        trigger = (t_stop, xi_stop, float(guard(xi_stop)) + math.sqrt(opts.singularity_guard))
    else:
        # No focal target in the flow direction means no collapse, ever.
        t_star = math.inf if (t_end > 0 and not watched) else None
        bracket, bound = None, None
        lo, hi = min(0.0, t_end), max(0.0, t_end)
        termination = "reached_t_end"

    return NumericProfile(
        surface=surface,
        times=np.array(run.times),
        xi_values=np.array(run.xi_values),
        termination=termination,
        t_domain=(lo, hi),
        t_star=t_star,
        t_star_bracket=bracket,
        t_star_error_bound=bound,
        nfev=run.nfev,
        accepted_steps=run.accepted,
        rejected_steps=run.rejected,
        guard_trigger=trigger,
        _steps=np.array(run.steps),
        _coeffs=np.array(run.coeffs),
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
