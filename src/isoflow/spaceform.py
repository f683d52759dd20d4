"""Generalized trigonometry of the three space forms and parallel-hypersurface formulas.

A space form of curvature ``kbar`` in {-1, 0, +1} comes with the pair of
functions ``c``, ``s`` (cos/sin, 1/xi, cosh/sinh) satisfying

    c' = -kbar * s,    s' = c,    c^2 + kbar * s^2 = 1.

Moving a hypersurface a distance ``xi`` along its unit normal geodesics maps
its frame as ``(F, N) -> (c F + s N, -kbar s F + c N)``, a principal curvature
``kappa`` to ``(kbar s + kappa c) / (c - kappa s)`` and the induced metric in
that principal direction by the factor ``(c - kappa s)^2``.  Everything here
is a pure function; values are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidFrameError,
    InvalidInputError,
    NumericalRangeError,
    SingularParallelError,
)

# Denominator magnitude below which an offset counts as a focal point.
# Double-precision cancellation floor, far below any catalog collapse geometry.
SINGULAR_DEN_TOL = 1e-12

# Tolerance for the ambient quadric/orthogonality constraints of a frame.
FRAME_TOL = 1e-8


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected ambient of constant sectional curvature -1, 0 or +1."""

    curvature: int

    def __post_init__(self):
        if self.curvature not in (-1, 0, 1):
            raise InvalidInputError(
                f"ambient curvature must be one of -1, 0, +1, got {self.curvature!r}"
            )


EUCLIDEAN = SpaceForm(0)
SPHERE = SpaceForm(1)
HYPERBOLIC = SpaceForm(-1)


def _check_finite(xi):
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"offset must be finite, got {xi!r}")
    return arr


def _like(template, value):
    """Return a scalar if the template input was scalar, else the array."""
    if np.ndim(template) == 0:
        return float(value)
    return value


def cs_eval(sf: SpaceForm, xi):
    """Evaluate the pair (c(xi), s(xi)) for the given space form.

    Accepts scalars or arrays; raises on non-finite input.
    """
    arr = _check_finite(xi)
    if sf.curvature == 0:
        c, s = np.ones_like(arr), arr
    elif sf.curvature == 1:
        c, s = np.cos(arr), np.sin(arr)
    else:
        c, s = np.cosh(arr), np.sinh(arr)
    return _like(xi, c), _like(xi, s)


def parallel_denominator(sf: SpaceForm, kappa: float, xi):
    """Stable evaluation of c(xi) - kappa * s(xi).

    Written in angle/exponential-addition form so that the cancellation near a
    focal point is confined to a single argument subtraction:

    * kbar = 0:   1 - kappa*xi
    * kbar = +1:  sqrt(1+kappa^2) * sin(theta - xi),  theta = arccot(kappa) in (0, pi)
    * kbar = -1, |kappa| > 1:  sign(kappa) sqrt(kappa^2-1) * sinh(r - xi),  r = arcoth(kappa)
    * kbar = -1, |kappa| < 1:  sqrt(1-kappa^2) * cosh(r - xi),  r = artanh(kappa)
    * kbar = -1, |kappa| = 1:  exp(-kappa*xi)
    """
    arr = _check_finite(xi)
    k = float(kappa)
    if not math.isfinite(k):
        raise InvalidInputError(f"curvature must be finite, got {kappa!r}")
    if sf.curvature == 0:
        den = 1.0 - k * arr
    elif sf.curvature == 1:
        theta = math.atan2(1.0, k)
        den = math.sqrt(1.0 + k * k) * np.sin(theta - arr)
    else:
        ak = abs(k)
        if ak == 1.0:
            den = np.exp(-k * arr)
        elif ak < 1.0:
            r = math.atanh(k)
            den = math.sqrt(1.0 - k * k) * np.cosh(r - arr)
        else:
            r = math.atanh(1.0 / k)
            den = math.copysign(math.sqrt(k * k - 1.0), k) * np.sinh(r - arr)
    return _like(xi, den)


def parallel_curvature(sf: SpaceForm, kappa: float, xi):
    """Principal curvature of the parallel hypersurface at offset xi.

    Returns (kbar s + kappa c) / (c - kappa s), evaluated through the
    angle-addition forms coth(r - xi), tanh(r - xi) or kappa/(1 - kappa xi)
    so that accuracy survives close to the focal point.  On the sphere the
    numerator sin(xi) + kappa cos(xi) is formed directly and only the
    denominator is anchored, as sqrt(1+kappa^2) sin(theta - xi): the anchor
    theta = arccot(kappa) carries an absolute rounding that a small |kappa|
    numerator cannot afford.
    Raises SingularParallelError when |c - kappa s| < SINGULAR_DEN_TOL.
    """
    arr = _check_finite(xi)
    k = float(kappa)
    if not math.isfinite(k):
        raise InvalidInputError(f"curvature must be finite, got {kappa!r}")
    if sf.curvature == 0:
        den = 1.0 - k * arr
        _require_nonsingular(den, k, xi)
        out = k / den
    elif sf.curvature == 1:
        den = math.sqrt(1.0 + k * k) * np.sin(math.atan2(1.0, k) - arr)
        _require_nonsingular(den, k, xi)
        out = (np.sin(arr) + k * np.cos(arr)) / den
    else:
        ak = abs(k)
        if ak == 1.0:
            out = np.full_like(arr, k)
        elif ak < 1.0:
            out = np.tanh(math.atanh(k) - arr)
        else:
            delta = math.atanh(1.0 / k) - arr
            sd = np.sinh(delta)
            _require_nonsingular(math.sqrt(k * k - 1.0) * sd, k, xi)
            out = np.cosh(delta) / sd
    return _like(xi, out)


def _require_nonsingular(den, kappa, xi):
    if np.any(np.abs(den) < SINGULAR_DEN_TOL):
        raise SingularParallelError(
            f"focal point reached: |c - kappa s| < {SINGULAR_DEN_TOL:g} "
            f"for kappa={kappa!r}",
            xi=xi,
            kappa=kappa,
        )


def parallel_metric_factor(sf: SpaceForm, kappa: float, xi):
    """Diagonal metric coefficient (c - kappa s)^2 of a principal direction.

    Always >= 0; vanishes exactly where parallel_curvature blows up.
    """
    den = parallel_denominator(sf, kappa, xi)
    return _like(xi, np.asarray(den) ** 2)


def focal_offset(sf: SpaceForm, kappa: float, direction: int):
    """First zero of c - kappa*s in the given direction, or None.

    ``direction`` is +1 (increasing xi) or -1 (decreasing).  Blocks without a
    zero in that direction (flat directions, horosphere-like curvatures
    |kappa| <= 1 in the hyperbolic ambient) return None.
    """
    k = float(kappa)
    if direction not in (-1, 1):
        raise InvalidInputError(f"direction must be +1 or -1, got {direction!r}")
    if sf.curvature == 1:
        theta = math.atan2(1.0, k)  # in (0, pi)
        return theta if direction > 0 else theta - math.pi
    if sf.curvature == 0:
        if k == 0.0:
            return None
        root = 1.0 / k
        return root if root * direction > 0 else None
    if abs(k) <= 1.0:
        return None
    root = math.atanh(1.0 / k)  # sign of kappa
    return root if root * direction > 0 else None


def _inverse_slope(sf: SpaceForm, xi: float) -> float:
    """Inverse of focal_offset: the curvature whose factor vanishes exactly at xi."""
    if xi == 0.0:
        raise NumericalRangeError("focal offset underflows to 0: its curvature is out of range")
    if sf.curvature == 1:
        return math.cos(xi) / math.sin(xi)
    if sf.curvature == 0:
        return 1.0 / xi
    return math.cosh(xi) / math.sinh(xi)


def inner(sf: SpaceForm, u, v):
    """Ambient inner product along the last axis.

    Lorentzian (negative sign on the first coordinate) when kbar = -1,
    Euclidean otherwise.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    prod = np.sum(u * v, axis=-1)
    if sf.curvature == -1:
        prod = prod - 2.0 * u[..., 0] * v[..., 0]
    return prod


def check_frame(sf: SpaceForm, F, N, tol: float = FRAME_TOL):
    """Validate the ambient constraints of a (position, normal) pair.

    For kbar = +-1: <F,F> = kbar, <F,N> = 0, <N,N> = 1 in the ambient inner
    product.  For kbar = 0 only <N,N> = 1 applies.  The tolerance scales with
    the squared frame magnitude: frames far along a normal geodesic carry
    exponentially large components whose inner products cannot cancel below
    roundoff at that scale.
    """
    F = np.asarray(F, dtype=float)
    N = np.asarray(N, dtype=float)
    if F.shape != N.shape:
        raise InvalidFrameError(f"F and N shapes differ: {F.shape} vs {N.shape}")
    ff, nn = np.sum(F * F, axis=-1), np.sum(N * N, axis=-1)
    tol_rows = tol * (1.0 + ff + nn)
    if sf.curvature == -1:
        nn = nn - 2.0 * N[..., 0] * N[..., 0]
    if np.any(np.abs(nn - 1.0) > tol_rows):
        raise InvalidFrameError("normal is not unit in the ambient inner product")
    if sf.curvature != 0:
        fn = np.sum(F * N, axis=-1)
        if sf.curvature == -1:
            ff, fn = ff - 2.0 * F[..., 0] * F[..., 0], fn - 2.0 * F[..., 0] * N[..., 0]
        if np.any(np.abs(ff - sf.curvature) > tol_rows):
            raise InvalidFrameError(f"position does not satisfy <F,F> = {sf.curvature}")
        if np.any(np.abs(fn) > tol_rows):
            raise InvalidFrameError("position and normal are not orthogonal")


def parallel_point(sf: SpaceForm, F, N, xi):
    """Move an ambient frame a distance xi along the normal geodesic.

    Returns (c F + s N, -kbar s F + c N).  Input frames are validated against
    the ambient constraints; outputs satisfy the same constraints by the
    c/s identities.  F and N may be batched with vectors on the last axis.
    """
    xi_arr = _check_finite(xi)
    if xi_arr.ndim != 0:
        raise InvalidInputError("parallel_point takes a scalar offset")
    F = np.asarray(F, dtype=float)
    N = np.asarray(N, dtype=float)
    check_frame(sf, F, N)
    return parallel_map(sf, F, N, float(xi_arr))


def parallel_map(sf: SpaceForm, F, N, xi: float):
    """parallel_point for float arrays F, N that check_frame has accepted."""
    c, s = cs_eval(sf, xi)
    return c * F + s * N, -sf.curvature * s * F + c * N
