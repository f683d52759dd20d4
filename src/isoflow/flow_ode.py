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
II.5-II.6), stepped in Python floats: on a scalar ODE, per-step array work
costs ten times the right-hand side.  One step is straight-line code with
the tableau written out (_attempt, _dense), and the right-hand side is
written once per ambient.  A forward run whose window reaches the collapse
time t* ends at a time known in advance, t* - collapse._limit_eval_offset(t*),
where collapse.analyze reads the limit; no event or root search decides the
stop.  A run that meets the singularity before it fails with
IntegrationFailureError.

Distinct trajectories share no mutable state and may run in parallel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface, mean_curvature
from .collapse import ETERNAL_CHECK_TIME, _limit_eval_offset, focal_blocks
from .errors import IntegrationFailureError, InvalidInputError, NumericalRangeError
from .spaceform import _anchor


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

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise InvalidInputError(f"{name} must be positive and finite")
        if self.rel_tol < 1e-14:
            raise InvalidInputError("rel_tol below 1e-14 is not resolvable in doubles")


DEFAULT_OPTIONS = OdeOptions()
# The least magnitude _kernel lets a block's denominator reach.
_FLOOR = 1e-14


def _kernel(surface: IsoparametricSurface):
    """The right-hand side fun(xi) of one surface, in math scalars.

    fun is written once per ambient, so a call only runs its ambient's
    formula, on each block's anchored form from spaceform._anchor.  The clamp
    at _FLOOR keeps trial steps that overshoot the focal point finite, so
    step control rejects them instead of aborting the solve; in H^n coth is
    1/tanh, as tanh saturates where sinh overflows.  The terms add up in
    block order.
    """
    sf = surface.space_form
    blocks = [(float(b.mult), b.kappa, *_anchor(sf, b.kappa)) for b in surface.blocks]
    copysign, sin, cos, tanh, floor = math.copysign, math.sin, math.cos, math.tanh, _FLOOR

    if sf.curvature == 0:
        blocks = [(m, k) for m, k, _, _, _ in blocks]

        def fun(xi):
            total = 0.0
            for m, k in blocks:
                den = 1.0 - k * xi
                if -floor < den < floor:
                    den = copysign(floor, den if den != 0.0 else 1.0)
                total += m * (k / den)
            return total

    elif sf.curvature == 1:
        blocks = [(m, k, anchor, scale) for m, k, _, anchor, scale in blocks]

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
        # A coth block carries the clamp limit of its tanh, a tanh block None.
        blocks = [(m, anchor, floor / abs(scale) if form == "sinh" else None)
                  for m, _, form, anchor, scale in blocks]

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


def _attempt(fun, y, k0, h):
    """One DOP853 trial step from (y, k0 = fun(y)): (y_new, fun(y_new), E5.k, E3.k, k).

    k holds the 13 stage derivatives.  The tableau (Hairer, Norsett & Wanner,
    Solving ODEs I, II.5) is written out, each sum without its zero terms and
    added left to right, so no bit depends on the interpreter as with sum()
    (CPython 3.12 made float sum() compensated).  A negative coefficient is
    subtracted, which is exact.
    """
    k1 = fun(y + (0.05260015195876773 * k0) * h)
    k2 = fun(y + (0.0197250569845379 * k0 + 0.0591751709536137 * k1) * h)
    k3 = fun(y + (0.02958758547680685 * k0 + 0.08876275643042054 * k2) * h)
    k4 = fun(y + (0.2413651341592667 * k0 - 0.8845494793282861 * k2 + 0.924834003261792 * k3) * h)
    k5 = fun(y + (0.037037037037037035 * k0 + 0.17082860872947386 * k3
                  + 0.12546768756682242 * k4) * h)
    k6 = fun(y + (0.037109375 * k0 + 0.17025221101954405 * k3 + 0.06021653898045596 * k4
                  - 0.017578125 * k5) * h)
    k7 = fun(y + (0.03709200011850479 * k0 + 0.17038392571223998 * k3 + 0.10726203044637328 * k4
                  - 0.015319437748624402 * k5 + 0.008273789163814023 * k6) * h)
    k8 = fun(y + (0.6241109587160757 * k0 - 3.3608926294469414 * k3 - 0.868219346841726 * k4
                  + 27.59209969944671 * k5 + 20.154067550477894 * k6 - 43.48988418106996 * k7) * h)
    k9 = fun(y + (0.47766253643826434 * k0 - 2.4881146199716677 * k3 - 0.590290826836843 * k4
                  + 21.230051448181193 * k5 + 15.279233632882423 * k6 - 33.28821096898486 * k7
                  - 0.020331201708508627 * k8) * h)
    k10 = fun(y + (-0.9371424300859873 * k0 + 5.186372428844064 * k3 + 1.0914373489967295 * k4
                   - 8.149787010746927 * k5 - 18.52006565999696 * k6 + 22.739487099350505 * k7
                   + 2.4936055526796523 * k8 - 3.0467644718982196 * k9) * h)
    k11 = fun(y + (2.273310147516538 * k0 - 10.53449546673725 * k3 - 2.0008720582248625 * k4
                   - 17.9589318631188 * k5 + 27.94888452941996 * k6 - 2.8589982771350235 * k7
                   - 8.87285693353063 * k8 + 12.360567175794303 * k9
                   + 0.6433927460157636 * k10) * h)
    y_new = y + h * (0.054293734116568765 * k0 + 4.450312892752409 * k5 + 1.8915178993145003 * k6
                     - 5.801203960010585 * k7 + 0.3111643669578199 * k8 - 0.1521609496625161 * k9
                     + 0.20136540080403034 * k10 + 0.04471061572777259 * k11)
    k12 = fun(y_new)
    err5 = (0.01312004499419488 * k0 - 1.2251564463762044 * k5 - 0.4957589496572502 * k6
            + 1.6643771824549864 * k7 - 0.35032884874997366 * k8 + 0.3341791187130175 * k9
            + 0.08192320648511571 * k10 - 0.022355307863886294 * k11)
    err3 = (-0.18980075407240762 * k0 + 4.450312892752409 * k5 + 1.8915178993145003 * k6
            - 5.801203960010585 * k7 - 0.4226823213237919 * k8 - 0.1521609496625161 * k9
            + 0.20136540080403034 * k10 + 0.02265179219836082 * k11)
    return y_new, k12, err5, err3, (k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12)


def _dense(fun, y, h, k):
    """The 3 extra stages of an accepted step and the last four terms h D.k of its interpolant."""
    k0, k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12 = k
    k13 = fun(y + (0.056167502283047954 * k0 + 0.25350021021662483 * k6 - 0.2462390374708025 * k7
                   - 0.12419142326381637 * k8 + 0.15329179827876568 * k9
                   + 0.00820105229563469 * k10 + 0.007567897660545699 * k11 - 0.008298 * k12) * h)
    k14 = fun(y + (0.03183464816350214 * k0 + 0.028300909672366776 * k5 + 0.053541988307438566 * k6
                   - 0.05492374857139099 * k7 - 0.00010834732869724932 * k10
                   + 0.0003825710908356584 * k11 - 0.00034046500868740456 * k12
                   + 0.1413124436746325 * k13) * h)
    k15 = fun(y + (-0.42889630158379194 * k0 - 4.697621415361164 * k5 + 7.683421196062599 * k6
                   + 4.06898981839711 * k7 + 0.3567271874552811 * k8 - 0.0013990241651590145 * k12
                   + 2.9475147891527724 * k13 - 9.15095847217987 * k14) * h)
    return (h * (-8.428938276109013 * k0 + 0.5667149535193777 * k5 - 3.0689499459498917 * k6
                 + 2.38466765651207 * k7 + 2.117034582445028 * k8 - 0.871391583777973 * k9
                 + 2.2404374302607883 * k10 + 0.6315787787694688 * k11 - 0.08899033645133331 * k12
                 + 18.148505520854727 * k13 - 9.194632392478356 * k14 - 4.436036387594894 * k15),
            h * (10.427508642579134 * k0 + 242.28349177525817 * k5 + 165.20045171727028 * k6
                 - 374.5467547226902 * k7 - 22.113666853125306 * k8 + 7.733432668472264 * k9
                 - 30.674084731089398 * k10 - 9.332130526430229 * k11 + 15.697238121770845 * k12
                 - 31.139403219565178 * k13 - 9.35292435884448 * k14 + 35.81684148639408 * k15),
            h * (19.985053242002433 * k0 - 387.0373087493518 * k5 - 189.17813819516758 * k6
                 + 527.8081592054236 * k7 - 11.57390253995963 * k8 + 6.8812326946963 * k9
                 - 1.0006050966910838 * k10 + 0.7777137798053443 * k11 - 2.778205752353508 * k12
                 - 60.19669523126412 * k13 + 84.32040550667716 * k14 + 11.99229113618279 * k15),
            h * (-25.69393346270375 * k0 - 154.18974869023643 * k5 - 231.5293791760455 * k6
                 + 357.6391179106141 * k7 + 93.40532418362432 * k8 - 37.45832313645163 * k9
                 + 104.0996495089623 * k10 + 29.8402934266605 * k11 - 43.53345659001114 * k12
                 + 96.32455395918828 * k13 - 39.17726167561544 * k14 - 149.72683625798564 * k15))


def _interpolant(coef, x, y0):
    """A step's 7-term DOP853 interpolant at x = (t - t_old) / h.

    Evaluated in the nested order of the standard DOP853 dense output, on
    scalars or arrays.
    """
    value = 0.0
    for i, c in enumerate(reversed(coef)):
        value = (value + c) * (x if i % 2 == 0 else 1.0 - x)
    return value + y0


@dataclass
class NumericProfile:
    """Dense numeric solution xi(t) of one DOP853 run, with its counters.

    Step i runs from times[i] to times[i + 1].  ``t_star`` is the quadrature
    collapse time when the run ended at it, +inf when the flow has no focal
    target, and None when integration simply reached ``t_end`` without
    establishing either.  ``nfev``, ``accepted_steps`` and ``rejected_steps``
    count the DOP853 work.
    """

    times: np.ndarray
    xi_values: np.ndarray
    t_domain: tuple
    t_star: float | None = None
    nfev: int = 0
    accepted_steps: int = 0
    rejected_steps: int = 0
    _coeffs: np.ndarray | None = None  # (steps, 7) interpolant terms

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
        """Each time on the interpolant of its step, chosen as the standard OdeSolution does."""
        ts, last = self.times, len(self._coeffs) - 1
        if ts[-1] >= ts[0]:
            seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, last)
        else:
            seg = last - np.clip(np.searchsorted(ts[::-1], t, side="right") - 1, 0, last)
        x = (t - ts[seg]) / (ts[seg + 1] - ts[seg])
        return _interpolant(self._coeffs[seg].T, x, self.xi_values[seg])


def solve_ivp(fun, t_end: float, opts: OdeOptions) -> NumericProfile:
    """DOP853 for xi' = fun(xi), xi(0) = 0, from t = 0 to t_end, in Python floats.

    The controller is that of the standard solve_ivp(method="DOP853") driver
    with dense output: the initial step of select_initial_step, the 12-stage
    step with the 5th/3rd-order error norm, safety 0.9, step factors between
    0.2 and 10 (at most 1 right after a rejection), exponent -1/8, a minimum
    step of 10 ulp of t, and per accepted step the 7-term interpolant, which
    costs 3 more stages.  _attempt and _dense run the stages.  ``nfev``
    counts RHS calls as that driver does: 2 for the initial step, 12 per
    attempt, 3 per accepted step.  Raises IntegrationFailureError where the
    step underflows before t_end.
    """
    exponent = -1.0 / 8  # -1 / (order of the error estimate + 1)
    rtol, atol = opts.rel_tol, opts.abs_tol
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
    h_abs = min(100 * h0, h_abs, span)

    t, y, nfev, accepted, rejected = 0.0, 0.0, 2, 0, 0
    times, xis, coeffs = [0.0], [0.0], []
    while True:
        min_step = 10 * abs(math.nextafter(t, sign * math.inf) - t)
        h_abs = max(h_abs, min_step)
        retried = False
        while True:
            if h_abs < min_step:
                raise IntegrationFailureError(
                    f"integration failed before t = {t_end!r}: "
                    "Required step size is less than spacing between numbers.")
            t_new = t + h_abs * sign
            if sign * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            y_new, f_new, err5, err3, k = _attempt(fun, y, f, h)
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
        coeffs.append((dy, h * f - dy, 2 * dy - h * (f_new + f), *_dense(fun, y, h, k)))
        t, y, f = t_new, y_new, f_new
        times.append(t)
        xis.append(y)
        if sign * (t - t_end) >= 0:
            return NumericProfile(np.array(times), np.array(xis),
                                  (min(0.0, t_end), max(0.0, t_end)), nfev=nfev,
                                  accepted_steps=accepted, rejected_steps=rejected,
                                  _coeffs=np.array(coeffs))


def _collapse_time(surface: IsoparametricSurface, direction: int, watched):
    """Collapse time t* = int_0^{xi*} d(zeta) / H(zeta) and its error estimate.

    +inf without a focal target.  1/H vanishes linearly at xi*, a smooth end;
    near-minimal surfaces put a zero of H near -H(0)/H'(0), close to 0.  The
    panels are graded (ratio 4) toward zeta = 0 until the innermost is
    narrower than a quarter of that distance; in a curved ambient none is
    wider than 0.5 (hyperbolic kappa -> 1+), while Euclidean 1/H is linear.
    The error estimate is |Q32 - Q16|, floored at a few ulp of t*.  Raises
    NumericalRangeError if t* is below the least normal double, e.g. at huge
    curvatures, where a subnormal t* has lost its relative precision.
    """
    if not watched:
        return math.inf, 0.0
    kbar = surface.space_form.curvature
    slope = sum(b.mult * (b.kappa * b.kappa + kbar) for b in surface.blocks)
    near = abs(surface.mean_curvature_at_zero / slope) if slope else math.inf
    cuts = [min(abs(off) for off in watched.values())]
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
    if not q32 >= sys.float_info.min:
        raise NumericalRangeError(f"{surface.family} collapse time underflows to {q32!r}")
    return q32, max(abs(q32 - q16), 4.0 * math.ulp(q32))


def integrate(surface: IsoparametricSurface, t_end: float, opts: OdeOptions = DEFAULT_OPTIONS,
              *, _quadrature=None) -> NumericProfile:
    """Integrate the flow ODE from xi(0) = 0 to t_end (either sign).

    A forward run whose window reaches the collapse time t* of a focal
    target ends at t* - collapse._limit_eval_offset(t*), the time
    collapse.analyze reads, and the profile carries the t* of
    ``estimate_tstar``.  ``_quadrature`` is the (t*, bound) of
    ``_collapse_time`` when the caller already has it.  A window short of t*
    runs to t_end.  Raises IntegrationFailureError if the solver gives up
    first.
    """
    t_end = float(t_end)
    if not math.isfinite(t_end):
        raise InvalidInputError(f"t_end must be finite, got {t_end!r}")
    direction, watched = focal_blocks(surface)
    # No focal target in the flow direction: no collapse, ever.
    t_star = math.inf if direction == 0 or (t_end > 0 and not watched) else None

    if t_end == 0.0 or direction == 0:
        # Stationary flow or empty window: xi stays identically zero.
        lo, hi = min(0.0, t_end), max(0.0, t_end)
        times = np.array([lo, hi]) if t_end != 0.0 else np.array([0.0])
        return NumericProfile(times, np.zeros_like(times), (lo, hi), t_star)

    if t_end > 0 and watched:
        quadrature = _quadrature or _collapse_time(surface, direction, watched)
        if t_end >= quadrature[0]:
            t_star = quadrature[0]
            t_end = t_star - _limit_eval_offset(t_star)
    profile = solve_ivp(_kernel(surface), t_end, opts)
    profile.t_star = t_star
    return profile


def estimate_tstar(
    surface: IsoparametricSurface,
    opts: OdeOptions = DEFAULT_OPTIONS,
    full_output: bool = False,
):
    """Collapse time of the flow ODE, or +inf for flows without a focal target.

    The value is the graded Gauss-Legendre quadrature of t* = int_0^{xi*}
    d(zeta) / H(zeta), with the measured |Q32 - Q16| as error bound.
    ``full_output=True`` returns (estimate, error bound, profile):
    ``integrate`` toward 2 t* (it ends at the collapse time first) or, for an
    eternal flow, up to ``ETERNAL_CHECK_TIME``, where ``collapse.analyze``
    reads it.  Only the profile uses ``opts``.
    """
    t_star, bound = _collapse_time(surface, *focal_blocks(surface))
    if not full_output:
        return t_star
    t_end = 2.0 * t_star if math.isfinite(t_star) else ETERNAL_CHECK_TIME
    profile = integrate(surface, t_end, opts, _quadrature=(t_star, bound))
    return t_star, bound, profile
