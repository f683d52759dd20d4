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
side.  Each step is straight-line code generated once from the tableau
(_dop853_step), and the right-hand side is written once per ambient.  No
scipy module is imported: scipy is only the file the tableau is read from.
A forward run whose window reaches the collapse time t* ends at a time
known in advance, t* - collapse._limit_eval_offset(t*), where
collapse.analyze reads the limit; no event or root search decides the stop.  A run that meets the
singularity before it fails with IntegrationFailureError.

Distinct trajectories share no mutable state and may run in parallel.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import IsoparametricSurface, mean_curvature
from .collapse import ETERNAL_CHECK_TIME, _limit_eval_offset
from .errors import IntegrationFailureError, InvalidInputError, NumericalRangeError
from .spaceform import focal_offset


def _rule(nodes, weights):
    """A symmetric Gauss-Legendre rule on [-1, 1] from its nodes and weights on (0, 1)."""
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# Gauss-Legendre rules of 16 and 32 nodes: the positive half of numpy's
# leggauss, whose rule is exactly symmetric, written out so that importing
# this module loads neither numpy.polynomial nor LAPACK.  _NODES holds both
# node sets on [0, 2], so zeta = lo + half * node keeps its relative
# precision near lo = 0.
_X16, _W16 = _rule(
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176])
_X32, _W32 = _rule(
    [0.048307665687738324, 0.1444719615827965, 0.23928736225213706, 0.33186860228212767,
     0.42135127613063533, 0.5068999089322294, 0.5877157572407623, 0.6630442669302152,
     0.7321821187402897, 0.7944837959679424, 0.84936761373257, 0.8963211557660521,
     0.9349060759377397, 0.9647622555875064, 0.9856115115452684, 0.9972638618494816],
    [0.09654008851472766, 0.09563872007927471, 0.09384439908080451, 0.09117387869576378,
     0.08765209300440378, 0.08331192422694671, 0.07819389578707023, 0.07234579410884834,
     0.06582222277636168, 0.058684093478535565, 0.05099805926237609, 0.042835898022226836,
     0.034273862913021765, 0.025392065309262024, 0.016274394730905743, 0.007018610009470506])
_NODES = np.concatenate([_X16, _X32]) + 1.0


@dataclass(frozen=True)
class OdeOptions:
    """Error control settings for the integrator."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            if not getattr(self, name) > 0.0:
                raise InvalidInputError(f"{name} must be positive")
        if self.rel_tol < 1e-14:
            raise InvalidInputError("rel_tol below 1e-14 is not resolvable in doubles")


DEFAULT_OPTIONS = OdeOptions()


def _kernel(surface: IsoparametricSurface, floor: float = 1e-14):
    """The right-hand side fun(xi) of one surface, in math scalars.

    fun is written once per ambient, so a call only runs its ambient's
    formula.  Each block's constants are formed here: its anchor
    atan2(1, k), atanh(1/k) or atanh(k), its scale sqrt(1+k^2) or
    sqrt(k^2-1), and the clamp limit of its denominator.  On the sphere the
    numerator sin(xi) + k cos(xi) is formed directly, as
    spaceform.parallel_curvature forms it.  The clamp keeps trial steps that
    overshoot the focal point finite, so step control rejects them instead of
    aborting the solve; in H^n coth is 1/tanh, as tanh saturates where sinh
    overflows, and a block with |k| = 1 is tanh at the anchor +-inf, which is
    k itself.  The terms add up in block order.
    """
    kbar = surface.space_form.curvature
    copysign, sin, cos, tanh = math.copysign, math.sin, math.cos, math.tanh

    if kbar == 0:
        blocks = [(float(b.mult), b.kappa) for b in surface.blocks]

        def fun(xi):
            total = 0.0
            for m, k in blocks:
                den = 1.0 - k * xi
                if -floor < den < floor:
                    den = copysign(floor, den if den != 0.0 else 1.0)
                total += m * (k / den)
            return total

    elif kbar == 1:
        blocks = [(float(b.mult), b.kappa, math.atan2(1.0, b.kappa),
                   math.sqrt(1.0 + b.kappa * b.kappa)) for b in surface.blocks]

        def fun(xi):
            sx, cx = sin(xi), cos(xi)
            total = 0.0
            for m, k, anchor, scale in blocks:
                den = scale * sin(anchor - xi)
                if -floor < den < floor:
                    den = copysign(floor, den if den != 0.0 else 1.0)
                total += m * ((sx + k * cx) / den)
            return total

    else:
        def hyperbolic(m, k):
            """(m, anchor, clamp limit): a coth block carries its limit, a tanh block None."""
            if abs(k) > 1.0:
                return m, math.atanh(1.0 / k), floor / math.sqrt(k * k - 1.0)
            return m, math.atanh(k) if abs(k) < 1.0 else copysign(math.inf, k), None

        blocks = [hyperbolic(float(b.mult), b.kappa) for b in surface.blocks]

        def fun(xi):
            total = 0.0
            for m, anchor, lim in blocks:
                if lim is None:
                    total += m * tanh(anchor - xi)
                    continue
                den = tanh(anchor - xi)
                if -lim < den < lim:
                    den = copysign(lim, den if den != 0.0 else 1.0)
                total += m * (1.0 / den)
            return total

    return fun


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


@functools.cache
def _dop853_step():
    """One DOP853 step as straight-line code, generated from _dop853()'s table.

    Returns (attempt, dense).  attempt(fun, y, f, h) runs the 12 stages of
    one trial step from (y, f = fun(y)) and returns (y_new, f_new, the two
    unscaled error sums E5.k and E3.k, k), where k holds the 13 stage
    derivatives; dense(fun, y, h, k) runs the 3 extra stages of an accepted
    step and returns the last four terms of its interpolant, h D.k.  Every
    sum c_0 k_0 + c_1 k_1 + ... is one expression without its zero
    coefficients, added left to right.  That rounds as the sum() of the same
    products does on CPython <= 3.11; from 3.12 on sum() adds floats with
    compensation, so its result depended on the interpreter version.  Dropping
    a zero term changes at most the sign of an exactly zero sum.
    """
    stages, b, e5, e3, extra, d = _dop853()

    def dot(row):
        return " + ".join(f"{c!r} * k{j}" for j, c in enumerate(row) if c)

    last = len(stages) + 1
    ks = ", ".join(f"k{j}" for j in range(last + 1))
    source = [
        "def attempt(fun, y, k0, h):",
        *(f"    k{s} = fun(y + ({dot(a)}) * h)" for s, a in enumerate(stages, start=1)),
        f"    y_new = y + h * ({dot(b)})",
        f"    k{last} = fun(y_new)",
        f"    return y_new, k{last}, {dot(e5)}, {dot(e3)}, ({ks})",
        "def dense(fun, y, h, k):",
        f"    {ks} = k",
        *(f"    k{s} = fun(y + ({dot(a)}) * h)" for s, a in enumerate(extra, start=last + 1)),
        f"    return {', '.join(f'h * ({dot(r)})' for r in d)}",
    ]
    namespace = {}
    exec(compile("\n".join(source), "<DOP853 step>", "exec"), namespace)
    return namespace["attempt"], namespace["dense"]


def _interpolant(coef, x, y0):
    """A step's 7-term DOP853 interpolant at x = (t - t_old) / h.

    Evaluated as scipy's Dop853DenseOutput evaluates it, on scalars or arrays.
    """
    value = 0.0
    for i, c in enumerate(reversed(coef)):
        value = (value + c) * (x if i % 2 == 0 else 1.0 - x)
    return value + y0


class _Run(NamedTuple):
    """A DOP853 run: status 0 reached t_end, -1 failed."""

    status: int
    message: str
    times: list
    xi_values: list
    steps: list
    coeffs: list
    nfev: int
    accepted: int
    rejected: int


def solve_ivp(fun, t_end: float, opts: OdeOptions) -> _Run:
    """DOP853 for xi' = fun(xi), xi(0) = 0, from t = 0 to t_end, in Python floats.

    The method and its controller are scipy's solve_ivp(method="DOP853") with
    dense output: the initial step of select_initial_step, the 12-stage step
    with the 5th/3rd-order error norm, safety 0.9, step factors between 0.2
    and 10 (at most 1 right after a rejection), exponent -1/8, a minimum step
    of 10 ulp of t, and per accepted step the 7-term interpolant, which costs
    3 more stages.  The stages run as the straight-line code of _dop853_step.
    ``nfev`` counts RHS calls as scipy does: 2 for the initial step, 12 per
    attempt, 3 per accepted step.
    """
    attempt, dense = _dop853_step()
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
            y_new, f_new, err5, err3, k = attempt(fun, y, f, h)
            nfev += 12
            scale = atol + max(abs(y), abs(y_new)) * rtol
            err5, err3 = err5 / scale, err3 / scale
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
        nfev += 3
        dy = y_new - y
        coef = (dy, h * f - dy, 2 * dy - h * (f_new + f), *dense(fun, y, h, k))
        steps.append(h)
        coeffs.append(coef)
        t, y, f = t_new, y_new, f_new
        times.append(t)
        xis.append(y)
        if sign * (t - t_end) >= 0:
            return run(0)


@dataclass
class NumericProfile:
    """Dense numeric solution xi(t) with its termination record and counters.

    ``t_star`` is the quadrature collapse time when the run ended at it,
    +inf when the flow has no focal target, and None when integration simply
    reached ``t_end`` without establishing either.  ``nfev``,
    ``accepted_steps`` and ``rejected_steps`` count the DOP853 work.
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
    _steps: np.ndarray | None = None  # full length h of each step
    _coeffs: np.ndarray | None = None  # (steps, 7) interpolant terms

    kind = "numeric"

    def xi(self, t):
        t_arr = np.asarray(t, dtype=float)
        lo, hi = self.t_domain
        if t_arr.size:
            first, last = float(np.min(t_arr)), float(np.max(t_arr))
            if first < lo - 1e-15 or last > hi + 1e-15:
                bad = first if first < lo - 1e-15 else last
                raise InvalidInputError(
                    f"time {bad!r} outside the integrated domain [{lo}, {hi}]"
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
    The error estimate is |Q32 - Q16|, floored at a few ulp of t*.  Raises
    NumericalRangeError if t* is not > 0, e.g. underflowed at huge curvatures.
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
    if not q32 > 0.0:
        raise NumericalRangeError(f"{surface.family} collapse time underflows to {q32!r}")
    return q32, max(abs(q32 - q16), 4.0 * math.ulp(q32))


def integrate(surface: IsoparametricSurface, t_end: float, opts: OdeOptions = DEFAULT_OPTIONS,
              *, _quadrature=None) -> NumericProfile:
    """Integrate the flow ODE from xi(0) = 0 to t_end (either sign).

    A forward run whose window reaches the collapse time t* of a focal
    target ends at t* - collapse._limit_eval_offset(t*), the time
    collapse.analyze reads, with termination "hit_singularity"; the profile
    then carries the collapse time of ``estimate_tstar`` with its error bound
    and bracket.  ``_quadrature`` is that (t*, bound) when the caller already
    has it.  A window short of t* runs to t_end.  Raises
    IntegrationFailureError if the solver gives up first.
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

    t_star = bound = None
    if t_end > 0 and not watched:
        t_star = math.inf  # no focal target in the flow direction: no collapse, ever
    elif t_end > 0:
        quadrature = _quadrature or _collapse_time(surface, direction, watched)
        if t_end >= quadrature[0]:
            t_star, bound = quadrature
            t_end = t_star - _limit_eval_offset(t_star)
    collapses = bound is not None

    run = solve_ivp(_kernel(surface), t_end, opts)
    if run.status == -1:
        raise IntegrationFailureError(f"integration failed before t = {t_end!r}: {run.message}")

    return NumericProfile(
        surface=surface,
        times=np.array(run.times),
        xi_values=np.array(run.xi_values),
        termination="hit_singularity" if collapses else "reached_t_end",
        t_domain=(min(0.0, t_end), max(0.0, t_end)),
        t_star=t_star,
        t_star_bracket=(t_star - bound, t_star + bound) if collapses else None,
        t_star_error_bound=bound,
        nfev=run.nfev,
        accepted_steps=run.accepted,
        rejected_steps=run.rejected,
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
    ``integrate`` toward 2 t* (it ends at the collapse time first) or, for an
    eternal flow, up to ``ETERNAL_CHECK_TIME``, where ``collapse.analyze``
    reads it.  Only the profile uses ``opts``.
    """
    t_star, bound = _collapse_time(surface, *_focal_blocks(surface))
    if not full_output:
        return t_star
    t_end = 2.0 * t_star if math.isfinite(t_star) else ETERNAL_CHECK_TIME
    profile = integrate(surface, t_end, opts, _quadrature=(t_star, bound))
    return t_star, bound, (t_star - bound, t_star + bound), profile
