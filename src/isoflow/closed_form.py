"""Exact flow profiles xi(t) and collapse times: one closed form per ambient.

Euclidean cylinders and horospheres have elementary profiles.  Every other
family has g distinct curvatures in the sphere or in hyperbolic space, and
one builder serves them all: an auxiliary exponential q(t) gives the pair
(cos g xi, sin g xi) or (cosh g xi, sinh g xi), and the offset follows by
atan2 (g*xi stays inside (-pi, pi) on the whole maximal domain) or arsinh.

Minimal surfaces short-circuit to the constant profile.  Surfaces whose mean
curvature is negative are resolved through their opposite orientation (all
curvatures negated, which restores the positive-mean-curvature convention the
closed forms assume); the produced profile negates its output so user-facing
signs match the orientation the surface was given in, and records the flip.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface
from .errors import InvalidInputError, NumericalRangeError
from .spaceform import _like

_INF = math.inf


@dataclass
class ClosedFormProfile:
    """A resolved evolution: evaluate xi(t) on the maximal domain ``t_domain``, (-inf, t_star].

    ``angle_pair(t)`` exposes the raw (cos g xi, sin g xi) or (cosh g xi,
    sinh g xi) pair of the resolved (positive mean curvature) orientation,
    for identity checks.  Evaluation at t = t_star returns the exact focal
    limit.
    """

    family: str
    t_star: float
    _xi_resolved: callable
    _pair: callable  # t -> (co, si), or None
    orientation_flipped: bool = False

    @property
    def t_domain(self):
        return (-_INF, self.t_star)

    def xi(self, t):
        t_arr = np.asarray(t, dtype=float)
        if not np.all(t_arr <= self.t_star) or np.any(t_arr == -_INF):  # NaN fails it too
            raise InvalidInputError(f"time outside the profile domain (-inf, {self.t_star}]")
        with np.errstate(all="ignore"):  # a non-finite offset raises below
            out = self._xi_resolved(t_arr)
        if not np.all(np.isfinite(out)):
            raise NumericalRangeError(f"{self.family} closed form gives a non-finite offset")
        return _like(t, -out if self.orientation_flipped else out)

    def angle_pair(self, t):
        """Raw closed-form pair at t, or None for families without one."""
        if self._pair is None:
            return None
        return self._pair(np.asarray(t, dtype=float))

    @property
    def xi_star(self):
        """The focal offset lim xi(t) as t -> t_star, for finite t_star."""
        if not math.isfinite(self.t_star):
            raise InvalidInputError("profile has no finite collapse time")
        return float(self.xi(self.t_star))


def _sqrt_clipped(x):
    return np.sqrt(np.maximum(x, 0.0))


# ---------------------------------------------------------------------------
# family builders (surface already non-minimal with positive mean curvature)

def _build_euclidean(surface):
    m, kappa = surface.blocks[0].mult, surface.blocks[0].kappa
    t_star = 1.0 / (2.0 * m * kappa * kappa)

    def xi(t):
        return (1.0 - _sqrt_clipped(1.0 - 2.0 * m * kappa * kappa * t)) / kappa

    return t_star, xi, None


def _build_horosphere(surface):
    kappa, n = surface.blocks[0].kappa, surface.n

    def xi(t):
        return kappa * n * t

    return _INF, xi, None


def _build_curved(surface):
    """The closed form of every family of the sphere (kbar = 1) and of H^{n+1} (kbar = -1).

    a = sum_i kappa_i over the g blocks (g cot(g theta) on the sphere, by the
    cotangent ladder) and beta = g H(0) / n give q(t) = a + beta expm1(kbar g n t)
    and root^2 = kbar (d - q^2), d = a^2 + kbar g^2.  Both factors of
    d - q^2 = (r - q)(r + q), r = sqrt(d), are formed from r -+ a, one of them
    as kbar g^2 / (r +- a), so nothing cancels near the focal point or as
    kappa -> 1.
    """
    kbar, g, n = surface.space_form.curvature, surface.g, surface.n
    kappas = surface.curvatures
    a = sum(kappas)
    beta = g * surface.mean_curvature_at_zero / n
    if kbar == 1:
        d = a * a + g * g
    elif g == 1:
        d = (kappas[0] - 1.0) * (kappas[0] + 1.0)
    else:
        try:
            d = (kappas[0] - kappas[1]) ** 2
        except OverflowError:  # kappa1 past ~1.34e154: t* underflows below
            d = _INF
    r = math.sqrt(max(d, 0.0))
    if a > 0.0:
        r_plus, r_minus = r + a, kbar * g * g / (r + a)
    else:
        r_plus, r_minus = kbar * g * g / (r - a), r - a
    e_star = r_minus / beta  # expm1(kbar g n t*), reached only where d > 0
    t_star = kbar * math.log1p(e_star) / (g * n) if d > 0.0 and e_star > -1.0 else _INF

    def parts(t):
        """(beta expm1(kbar g n t), q, root) at t."""
        t = np.asarray(t, dtype=float)
        be = beta * np.expm1(kbar * g * n * t)
        qv = a + be
        if d > 0.0:
            # At t* the root is exactly 0; the rounding of be would leave
            # O(sqrt(eps)) there, and xi(t*) would miss the focal offset.
            root = _sqrt_clipped(kbar * (r_minus - be) * (r_plus + be))
            return be, qv, np.where(t >= t_star, 0.0, root)
        return be, qv, _sqrt_clipped(qv * qv - d)

    if kbar == 1:

        def pair(t):
            _, qv, root = parts(t)
            den = a * a + g * g
            return (a * qv + g * root) / den, (g * qv - a * root) / den

        def xi(t):
            co, si = pair(t)
            return np.arctan2(si, co) / g

        return t_star, xi, pair

    def pair(t):
        be, qv, root = parts(t)
        ch = (qv * qv + g * g) / (a * qv + g * root)
        sh = -be * (a + qv) / (g * qv + a * root)
        return ch, sh

    def xi_sinh(t):
        # arsinh inverts sinh exactly (sign included); arccosh would lose
        # half the significant digits near xi = 0.
        return np.arcsinh(pair(t)[1]) / g

    # Without a focal point (kappa < 1) g (rho - xi) = artanh(q / root) with
    # g rho = artanh(a / g), the anchor of spaceform.parallel_curvature.  Past
    # xi = rho / 2 that difference is exact to rounding and reaches the
    # totally geodesic limit rho exactly; before it arsinh stays accurate.
    anchor = math.atanh(a / g) if d < 0.0 else None

    def xi_anchored(t):
        _, qv, root = parts(t)
        rest = np.arctanh(qv / root)
        return np.where(2.0 * rest < anchor, (anchor - rest) / g, xi_sinh(t))

    return t_star, xi_sinh if anchor is None else xi_anchored, pair


def resolve_profile(surface: IsoparametricSurface) -> ClosedFormProfile:
    """Closed-form profile for any catalog surface.

    Minimal surfaces give the constant profile; negative-mean-curvature
    surfaces are resolved through the flipped orientation with output signs
    restored.  The builder follows the geometry: flat, a horosphere (one
    block of curvature 1 in H^{n+1}), or curved.  Raises NumericalRangeError
    if t* is below the least normal double, e.g. at huge curvatures.
    """
    if surface.is_minimal:
        return ClosedFormProfile(surface.family, _INF, np.zeros_like, None)
    flipped = surface.mean_curvature_at_zero < 0.0
    resolved = surface.flipped() if flipped else surface
    kbar = resolved.space_form.curvature
    horosphere = kbar == -1 and resolved.curvatures == (1.0,)
    builder = _build_euclidean if kbar == 0 else _build_horosphere if horosphere else _build_curved
    t_star, xi, pair = builder(resolved)
    if not t_star >= sys.float_info.min:
        raise NumericalRangeError(f"{resolved.family} collapse time underflows to {t_star!r}")
    return ClosedFormProfile(resolved.family, t_star, xi, pair, flipped)
