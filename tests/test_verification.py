"""The built-in cross-check suite must pass wholesale on the family grid."""

import math

import numpy as np
import pytest

from isoflow import resolve_profile, rhs, verification


@pytest.fixture(scope="module")
def grid():
    return verification.builtin_grid()


def test_grid_spans_all_families(grid):
    families = {surface.family for _, surface in grid}
    assert families >= {
        "euclidean_cylinder",
        "horosphere",
        "hyperbolic_umbilic",
        "hyperbolic_cylinder",
        "sphere_umbilic",
        "sphere_g2",
        "sphere_g3",
        "sphere_g4",
        "sphere_g6",
    }
    non_minimal = [s for _, s in grid if not s.is_minimal]
    assert len(non_minimal) >= 50


def test_all_checks_pass(grid):
    results = verification.run_verification(surfaces=grid)
    failures = [r for r in results if not r.passed]
    assert not failures, "\n".join(
        f"{r.check} | {r.label} | {r.detail}" for r in failures
    )


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        verification.run_verification(checks=["no-such-check"])


def _scalar_ode_residual(surface, profile):
    """Reference: the five-point stencil one time and one scalar xi call at a time."""
    t_star = profile.t_star
    hi = 0.99 * t_star if math.isfinite(t_star) else verification.ETERNAL_WINDOW
    margin = hi / 200.0
    worst = 0.0
    for t in np.linspace(margin, hi - margin, 100):
        h = min(1e-5, (t_star - t) / 400.0)
        deriv = (
            -profile.xi(t + 2 * h) + 8 * profile.xi(t + h)
            - 8 * profile.xi(t - h) + profile.xi(t - 2 * h)
        ) / (12.0 * h)
        worst = max(worst, abs(deriv - rhs(surface, profile.xi(t))))
    return worst


@pytest.mark.parametrize("family", [
    "euclidean_cylinder", "horosphere", "hyperbolic_umbilic", "hyperbolic_cylinder",
    "sphere_umbilic", "sphere_g2", "sphere_g3", "sphere_g4", "sphere_g6",
])
def test_ode_residual_equals_scalar_stencil(grid, family):
    surface = next(s for _, s in grid if s.family == family and not s.is_minimal)
    profile = resolve_profile(surface)
    assert verification._ode_residual(surface, profile) == _scalar_ode_residual(surface, profile)
