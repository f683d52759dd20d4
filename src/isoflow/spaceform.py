"""Generalized trigonometry of the three space forms and parallel-hypersurface formulas.

A space form of curvature ``kbar`` in {-1, 0, +1} comes with the pair of
functions ``c``, ``s`` (cos/sin, 1/xi, cosh/sinh) satisfying

    c' = -kbar * s,    s' = c,    c^2 + kbar * s^2 = 1.

Moving a hypersurface a distance ``xi`` along its unit normal geodesics maps
its frame as ``(F, N) -> (c F + s N, -kbar s F + c N)``, a principal curvature
``kappa`` to ``(kbar s + kappa c) / (c - kappa s)`` and the induced metric in
that principal direction by the factor ``(c - kappa s)^2``.

``_anchor`` is the one place that writes a block's ``c - kappa s`` in
anchored form (form, anchor, scale), so that the cancellation near a focal
point stays in the one subtraction ``anchor - xi``:

* flat:  1 - scale xi,  scale kappa, anchor 1/kappa (+inf for kappa = 0);
* sin:   scale sin(anchor - xi),  anchor arccot(kappa) in (0, pi);
* sinh:  scale sinh(anchor - xi),  kbar = -1, |kappa| > 1, anchor arcoth(kappa);
* cosh:  scale cosh(anchor - xi),  kbar = -1, |kappa| < 1, anchor artanh(kappa);
* exp:   exp(-scale xi),  kbar = -1, |kappa| = 1, scale kappa, anchor +-inf.

In H^n the evolved curvature is coth or tanh of ``anchor - xi``.  Everything
here is a pure function; values are immutable and safe to share across
threads.
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
        if type(self.curvature) is not int or self.curvature not in (-1, 0, 1):
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


def _anchor(sf: SpaceForm, kappa: float):
    """(form, anchor, scale) of a block's c(xi) - kappa s(xi): see the module docstring."""
    k = float(kappa)
    if not math.isfinite(k):
        raise InvalidInputError(f"curvature must be finite, got {kappa!r}")
    if sf.curvature == 0:
        return "flat", 1.0 / k if k else math.inf, k
    # k * k overflows past |k| ~ 1.34e154, where sqrt(1 + k^2) and sqrt(k^2 - 1) are |k|.
    big = k * k == math.inf
    if sf.curvature == 1:
        return "sin", math.atan2(1.0, k), abs(k) if big else math.sqrt(1.0 + k * k)
    if abs(k) == 1.0:
        return "exp", math.copysign(math.inf, k), k
    if abs(k) < 1.0:
        return "cosh", math.atanh(k), math.sqrt(1.0 - k * k)
    return "sinh", math.atanh(1.0 / k), k if big else math.copysign(math.sqrt(k * k - 1.0), k)


def parallel_curvature(sf: SpaceForm, kappa: float, xi):
    """Principal curvature of the parallel hypersurface at offset xi.

    Returns (kbar s + kappa c) / (c - kappa s) from the anchored form of
    _anchor, so that accuracy survives close to the focal point; coth is
    sign(anchor - xi) where cosh and sinh overflow.  On the sphere the
    numerator sin(xi) + kappa cos(xi) is formed directly and only the
    denominator is anchored: the anchor carries an absolute rounding that a
    small |kappa| numerator cannot afford.
    Raises SingularParallelError when |c - kappa s| < SINGULAR_DEN_TOL.
    """
    arr, k = _check_finite(xi), float(kappa)
    form, anchor, scale = _anchor(sf, kappa)
    if form in ("cosh", "exp"):
        return _like(xi, np.tanh(anchor - arr))
    if form == "sinh":
        delta = anchor - arr
        with np.errstate(all="ignore"):  # cosh and sinh overflow past |delta| ~ 710
            sd = np.sinh(delta)
            out = np.cosh(delta) / sd
        out, den = np.where(np.isfinite(out), out, np.sign(delta)), scale * sd
    else:
        den = 1.0 - scale * arr if form == "flat" else scale * np.sin(anchor - arr)
    if np.any(np.abs(den) < SINGULAR_DEN_TOL):
        raise SingularParallelError(
            f"focal point reached: |c - kappa s| < {SINGULAR_DEN_TOL:g} for kappa={k!r}")
    if form == "flat":
        out = scale / den
    elif form == "sin":
        out = (np.sin(arr) + k * np.cos(arr)) / den
    return _like(xi, out)


def parallel_metric_factor(sf: SpaceForm, kappa: float, xi):
    """Diagonal metric coefficient (c - kappa s)^2 of a principal direction.

    c - kappa s is evaluated in the anchored form of _anchor.  Always >= 0;
    vanishes exactly where parallel_curvature blows up.
    """
    arr = _check_finite(xi)
    form, anchor, scale = _anchor(sf, kappa)
    if form == "flat":
        den = 1.0 - scale * arr
    elif form == "exp":
        den = np.exp(-scale * arr)
    else:
        den = scale * getattr(np, form)(anchor - arr)
    return _like(xi, np.asarray(den) ** 2)


def focal_offset(sf: SpaceForm, kappa: float, direction: int):
    """First zero of c - kappa*s in the given direction, or None.

    ``direction`` is +1 (increasing xi) or -1 (decreasing).  Blocks without a
    zero in that direction (flat directions, horosphere-like curvatures
    |kappa| <= 1 in the hyperbolic ambient) return None.
    """
    if direction not in (-1, 1):
        raise InvalidInputError(f"direction must be +1 or -1, got {direction!r}")
    form, anchor, _ = _anchor(sf, kappa)
    if form == "sin":
        return anchor if direction > 0 else anchor - math.pi
    if form in ("flat", "sinh") and 0.0 < anchor * direction < math.inf:
        return anchor
    return None


def _inverse_slope(sf: SpaceForm, xi: float) -> float:
    """Inverse of focal_offset: the curvature whose factor vanishes exactly at xi."""
    if xi == 0.0:
        raise NumericalRangeError("focal offset underflows to 0: its curvature is out of range")
    if sf.curvature == 1:
        return math.cos(xi) / math.sin(xi)
    if sf.curvature == 0:
        return 1.0 / xi
    return math.cosh(xi) / math.sinh(xi)


def _row_sum(A, B):
    """sum_i A_i B_i over the columns, broadcast over the points.

    Products of one shape (one factor's columns) are summed first, so the
    sum spans the whole grid only from the first sum across factors on.
    """
    parts = {}
    for a, b in zip(A, B):
        ab = a * b
        if ab.shape in parts:
            parts[ab.shape] += ab
        else:
            parts[ab.shape] = ab
    total, *rest = parts.values()
    for part in rest:
        total = total + part
    return total


def check_frame(sf: SpaceForm, F, N, tol: float = FRAME_TOL):
    """Validate the ambient constraints of a (position, normal) pair.

    For kbar = +-1: <F,F> = kbar, <F,N> = 0, <N,N> = 1 in the ambient inner
    product.  For kbar = 0 only <N,N> = 1 applies.  The tolerance scales with
    the squared frame magnitude: frames far along a normal geodesic carry
    exponentially large components whose inner products cannot cancel below
    roundoff at that scale.

    F and N are tuples of columns: one float array per ambient coordinate,
    broadcast against each other over the points, so a column may keep size
    1 along the axes it is constant on.  Batch shapes that do not broadcast
    raise numpy's ValueError.
    """
    if len(F) != len(N):
        raise InvalidFrameError(f"F has {len(F)} coordinates and N {len(N)}")
    with np.errstate(over="ignore", invalid="ignore"):
        ff, nn = _row_sum(F, F), _row_sum(N, N)
        tol_rows = tol * (1.0 + ff + nn)
    # An infinite row would get an infinite tolerance; each test below reads
    # "not all within", so a NaN row fails it too.
    if not np.isfinite(tol_rows).all():
        raise InvalidFrameError("frame is not finite, or its squared norm overflows")
    if sf.curvature == -1:
        nn = nn - 2.0 * N[0] * N[0]
    if not (np.abs(nn - 1.0) <= tol_rows).all():
        raise InvalidFrameError("normal is not unit in the ambient inner product")
    if sf.curvature != 0:
        fn = _row_sum(F, N)
        if sf.curvature == -1:
            ff, fn = ff - 2.0 * F[0] * F[0], fn - 2.0 * F[0] * N[0]
        if not (np.abs(ff - sf.curvature) <= tol_rows).all():
            raise InvalidFrameError(f"position does not satisfy <F,F> = {sf.curvature}")
        if not (np.abs(fn) <= tol_rows).all():
            raise InvalidFrameError("position and normal are not orthogonal")


def parallel_point(sf: SpaceForm, F, N, xi):
    """Move an ambient frame a distance xi along the normal geodesic.

    Returns (c F + s N, -kbar s F + c N).  Input frames are validated against
    the ambient constraints; outputs satisfy the same constraints by the
    c/s identities.  F and N may be batched with vectors on the last axis;
    so are the outputs.
    """
    xi_arr = _check_finite(xi)
    if xi_arr.ndim != 0:
        raise InvalidInputError("parallel_point takes a scalar offset")
    F, N = (tuple(np.moveaxis(np.asarray(X, dtype=float), -1, 0)) for X in (F, N))
    check_frame(sf, F, N)
    points, normals = parallel_map(sf, F, N, float(xi_arr))
    return np.stack(points, axis=-1), np.stack(normals, axis=-1)


def parallel_map(sf: SpaceForm, F, N, xi: float):
    """parallel_point for frames that check_frame has accepted, column by column.

    F and N are tuples of columns, as check_frame takes them.  Returns
    (points, normals) as tuples of columns, each with the roundings of
    c F + s N and -kbar s F + c N.
    """
    c, s = cs_eval(sf, xi)
    k = -sf.curvature * s
    points, normals = [], []
    for f, n in zip(F, N):
        points.append(c * f + s * n)
        normals.append(c * n + k * f)
    return tuple(points), tuple(normals)
