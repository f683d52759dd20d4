"""Classify what a flow converges to: collapse time, degenerate block, focal dimension.

A flow with finite collapse time ends where the first metric factor
(c - kappa_i s)^2 vanishes.  If every block degenerates the limit is a point;
if exactly one block does, the limit is a focal submanifold whose dimension is
the surface dimension minus the degenerate multiplicity.  Flows without a
finite collapse time either converge to a totally geodesic hypersurface (all
evolved curvatures decay) or run eternally with constant curvatures
(horosphere-like and minimal cases).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import IsoparametricSurface
from .errors import AnalysisIncompleteError
from .spaceform import _inverse_slope, focal_offset, parallel_curvature, parallel_metric_factor

# Evaluation offset below the collapse time: inside double-precision
# resolution of t_star, clear of the singular cancellation zone and of t = 0.
# flow_ode.integrate ends a run that reaches t_star at this offset.
def _limit_eval_offset(t_star: float) -> float:
    return min(max(1e-8, 1e-8 * t_star), 0.5 * t_star)


# Horizon for judging eternal flows; flow_ode.estimate_tstar integrates their
# numeric profile this far.
ETERNAL_CHECK_TIME = 50.0

# Evolved curvatures below this at the horizon mean a totally geodesic limit.
GEODESIC_LIMIT_TOL = 1e-3

# Curvature drift below this at the horizon means an eternal (isometric) flow.
ETERNAL_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class CollapseReport:
    """Outcome of a flow: limit kind, degenerate data and residuals."""

    t_star: float
    limit_kind: str  # point | focal_submanifold | totally_geodesic_limit | eternal
    degenerate_block_index: int | None
    focal_dimension: int | None
    focal_condition_residual: float | None
    metric_factors_at_limit: tuple
    orientation_flipped: bool = False

    def to_dict(self) -> dict:
        return {
            "t_star": None if math.isinf(self.t_star) else self.t_star,
            "limit_kind": self.limit_kind,
            "degenerate_block_index": self.degenerate_block_index,
            "focal_dimension": self.focal_dimension,
            "focal_condition_residual": self.focal_condition_residual,
            "metric_factors_at_limit": list(self.metric_factors_at_limit),
            "orientation_flipped": self.orientation_flipped,
        }


def analyze(surface: IsoparametricSurface, profile) -> CollapseReport:
    """Classify the limit of a flow profile (closed-form or numeric)."""
    t_star = getattr(profile, "t_star", None)
    if t_star is None:
        raise AnalysisIncompleteError(
            "profile carries no collapse information; integrate past the collapse "
            "time or to a longer horizon"
        )
    flipped = bool(getattr(profile, "orientation_flipped", False))
    sf = surface.space_form

    if math.isfinite(t_star):
        t_eval = t_star - _limit_eval_offset(t_star)
        t_eval = _clamp_to_domain(profile, t_eval)
        xi_end = float(profile.xi(t_eval))
        h0 = surface.mean_curvature_at_zero
        direction = 1 if h0 > 0 else -1
        offsets = [
            focal_offset(sf, b.kappa, direction) for b in surface.blocks
        ]
        finite = [abs(o) for o in offsets if o is not None]
        nearest = min(finite)
        degenerate = [
            i
            for i, o in enumerate(offsets)
            if o is not None and abs(abs(o) - nearest) < 1e-12 * (1.0 + nearest)
        ]
        factors = tuple(
            float(parallel_metric_factor(sf, b.kappa, xi_end)) for b in surface.blocks
        )
        if len(degenerate) == len(surface.blocks):
            kind = "point"
            focal_dim = 0
        else:
            kind = "focal_submanifold"
            focal_dim = surface.n - sum(surface.blocks[i].mult for i in degenerate)
        deg_index = degenerate[0]
        residual = abs(
            _inverse_slope(sf, xi_end) - surface.blocks[deg_index].kappa
        )
        return CollapseReport(
            t_star=float(t_star),
            limit_kind=kind,
            degenerate_block_index=deg_index,
            focal_dimension=focal_dim,
            focal_condition_residual=residual,
            metric_factors_at_limit=factors,
            orientation_flipped=flipped,
        )

    # No finite collapse: distinguish eternal from a totally geodesic limit.
    t_chk = _clamp_to_domain(profile, ETERNAL_CHECK_TIME)
    xi_end = float(profile.xi(t_chk))
    hats = np.array(
        [float(parallel_curvature(sf, b.kappa, xi_end)) for b in surface.blocks]
    )
    base = np.array([b.kappa for b in surface.blocks])
    factors = tuple(
        float(parallel_metric_factor(sf, b.kappa, xi_end)) for b in surface.blocks
    )
    if np.max(np.abs(hats - base)) < ETERNAL_DRIFT_TOL:
        kind = "eternal"
    elif np.max(np.abs(hats)) < GEODESIC_LIMIT_TOL:
        kind = "totally_geodesic_limit"
    else:
        raise AnalysisIncompleteError(
            f"flow at t={t_chk} has neither constant nor vanishing curvatures"
        )
    return CollapseReport(
        t_star=math.inf,
        limit_kind=kind,
        degenerate_block_index=None,
        focal_dimension=None,
        focal_condition_residual=None,
        metric_factors_at_limit=factors,
        orientation_flipped=flipped,
    )


def _clamp_to_domain(profile, t: float) -> float:
    domain = getattr(profile, "t_domain", None)
    if domain is not None:
        lo, hi = domain
        if t > hi:
            t = hi
        if t < lo:
            t = lo
    return t


def focal_dimension_expected(surface: IsoparametricSurface) -> int | None:
    """The catalog's predicted focal dimension, used as a test oracle.

    Families without a stated focal claim (point collapses, horospheres,
    geodesic limits, minimal surfaces) return None.  Negative-mean-curvature
    surfaces are judged by their flipped orientation, whose leading block is
    the one that degenerates.
    """
    if surface.is_minimal:
        return None
    norm = surface.flipped() if surface.mean_curvature_at_zero < 0 else surface
    family = norm.family
    blocks = norm.blocks
    if family == "euclidean_cylinder":
        if len(blocks) == 1:
            return None  # sphere: collapses to a point
        m = blocks[0].mult
        return norm.n - m
    if family == "hyperbolic_cylinder":
        return blocks[1].mult
    if family == "sphere_g2":
        return norm.n - blocks[0].mult
    if family == "sphere_g3":
        return 2 * blocks[0].mult
    if family == "sphere_g4":
        return blocks[0].mult + 2 * blocks[1].mult
    if family == "sphere_g6":
        return 5 * blocks[0].mult
    return None
