"""Classify what a flow converges to: collapse time, degenerate block, focal dimension.

A flow with finite collapse time ends where the first metric factor
(c - kappa_i s)^2 vanishes.  If every block degenerates the limit is a point;
if exactly one block does, the limit is a focal submanifold whose dimension is
the surface dimension minus the degenerate multiplicity.  Flows without a
finite collapse time either converge to a totally geodesic hypersurface (all
evolved curvatures decay) or run eternally with constant curvatures
(horosphere-like and minimal cases).

focal_blocks is the one scan for the blocks that degenerate in the flow
direction and their focal offsets; flow_ode and verification reuse it.
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


def focal_blocks(surface: IsoparametricSurface):
    """Flow direction (+1, -1, or 0 when minimal) and {block index: focal offset}
    of the blocks whose metric factor vanishes in that direction."""
    if surface.is_minimal:
        return 0, {}
    direction = 1 if surface.mean_curvature_at_zero > 0 else -1
    offsets = {i: focal_offset(surface.space_form, b.kappa, direction)
               for i, b in enumerate(surface.blocks)}
    return direction, {i: off for i, off in offsets.items() if off is not None}


def analyze(surface: IsoparametricSurface, profile) -> CollapseReport:
    """Classify the limit of a flow profile (closed-form or numeric).

    The limit is read at one time: t* - _limit_eval_offset(t*), or
    ETERNAL_CHECK_TIME without a finite collapse, clamped to the
    ``t_domain`` of a numeric profile.
    """
    t_star = getattr(profile, "t_star", None)
    if t_star is None:
        raise AnalysisIncompleteError(
            "profile carries no collapse information; integrate past the collapse "
            "time or to a longer horizon"
        )
    flipped = bool(getattr(profile, "orientation_flipped", False))
    sf, blocks = surface.space_form, surface.blocks
    collapses = math.isfinite(t_star)
    t_eval = t_star - _limit_eval_offset(t_star) if collapses else ETERNAL_CHECK_TIME
    domain = getattr(profile, "t_domain", None)
    if domain is not None:
        t_eval = max(domain[0], min(t_eval, domain[1]))
    xi_end = float(profile.xi(t_eval))
    factors = tuple(float(parallel_metric_factor(sf, b.kappa, xi_end)) for b in blocks)

    if collapses:
        offsets = focal_blocks(surface)[1]
        nearest = min(abs(off) for off in offsets.values())
        degenerate = [i for i, off in offsets.items()
                      if abs(abs(off) - nearest) < 1e-12 * (1.0 + nearest)]
        if len(degenerate) == len(blocks):
            kind, focal_dim = "point", 0
        else:
            kind = "focal_submanifold"
            focal_dim = surface.n - sum(blocks[i].mult for i in degenerate)
        residual = abs(_inverse_slope(sf, xi_end) - blocks[degenerate[0]].kappa)
        return CollapseReport(float(t_star), kind, degenerate[0], focal_dim, residual,
                              factors, flipped)

    # No finite collapse: distinguish eternal from a totally geodesic limit.
    hats = np.array([float(parallel_curvature(sf, b.kappa, xi_end)) for b in blocks])
    if np.max(np.abs(hats - np.array([b.kappa for b in blocks]))) < ETERNAL_DRIFT_TOL:
        kind = "eternal"
    elif np.max(np.abs(hats)) < GEODESIC_LIMIT_TOL:
        kind = "totally_geodesic_limit"
    else:
        raise AnalysisIncompleteError(
            f"flow at t={t_eval} has neither constant nor vanishing curvatures"
        )
    return CollapseReport(math.inf, kind, None, None, None, factors, flipped)


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
