"""The built-in cross-check suite must pass wholesale on the family grid."""

import math
import tracemalloc

import numpy as np
import pytest

from isoflow import (
    EUCLIDEAN, HYPERBOLIC, SPHERE, Block, IsoparametricSurface, closed_form, collapse, cs_eval,
    flow_ode, mean_curvature, resolve_profile, verification,
)

MiB = 2**20


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
        worst = max(worst, abs(deriv - mean_curvature(surface, profile.xi(t))))
    return worst


@pytest.mark.parametrize("family", [
    "euclidean_cylinder", "horosphere", "hyperbolic_umbilic", "hyperbolic_cylinder",
    "sphere_umbilic", "sphere_g2", "sphere_g3", "sphere_g4", "sphere_g6",
])
def test_ode_residual_equals_scalar_stencil(grid, family):
    surface = next(s for _, s in grid if s.family == family and not s.is_minimal)
    profile = resolve_profile(surface)
    assert verification._ode_residual(surface, profile) == _scalar_ode_residual(surface, profile)


def _one_shot_cs_identity():
    """Reference: the identities check on all n = 10**6 // 3 offsets of each
    ambient at once, np.arange(n) * (20 / n) - 10, taken by the hyperbolic,
    Euclidean and spherical ambients in turn.

    Returns the worst ulp and the offsets of one ambient.
    """
    n = 10**6 // 3
    offsets = np.arange(n) * (20 / n) - 10
    worst = 0.0
    for kbar, sf in ((-1, HYPERBOLIC), (0, EUCLIDEAN), (1, SPHERE)):
        c, s = cs_eval(sf, offsets)
        residual = np.abs(c * c + kbar * s * s - 1.0)
        scale = np.maximum(1.0, np.maximum(c * c, np.abs(kbar) * s * s))
        worst = max(worst, float(np.max(residual / np.spacing(scale))))
    return worst, offsets


def test_cs_identity_chunks_the_one_shot_offsets(monkeypatch):
    seen = []

    def recording_cs_eval(sf, xi):
        seen.append((sf, np.array(xi)))
        return cs_eval(sf, xi)

    monkeypatch.setattr(verification, "cs_eval", recording_cs_eval)
    passed, detail = verification.check_cs_identity()
    worst, offsets = _one_shot_cs_identity()
    assert max(len(xi) for _, xi in seen) == 2**14
    for sf in (HYPERBOLIC, EUCLIDEAN, SPHERE):
        np.testing.assert_array_equal(
            np.concatenate([xi for owner, xi in seen if owner == sf]), offsets)
    assert detail == f"max identity residual = {worst:.2f} ulp (tol 4)"
    assert passed == (worst <= 4.0)


def _traced_peak(fn):
    fn()  # first-call allocations (caches, lazy imports) are not the check's
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cylinder_product_reads_the_catalog(monkeypatch):
    # k1 * (1 / k1) tested float arithmetic: a constructor storing a wrong
    # reciprocal, within the catalog's own 1e-8 pattern check, must fail it.
    def wrong_reciprocal(m1, m2, kappa1):
        blocks = (Block(kappa1, m1), Block((1.0 + 1e-10) / kappa1, m2))
        return IsoparametricSurface(HYPERBOLIC, blocks, "hyperbolic_cylinder")

    passed, detail = verification.check_curvature_parametrization()
    assert passed and detail.endswith("cylinder product: 1.11e-16")
    monkeypatch.setattr(verification, "make_hyperbolic_cylinder", wrong_reciprocal)
    passed, detail = verification.check_curvature_parametrization()
    assert not passed and detail.endswith("cylinder product: 1.00e-10")


def test_identities_peak_memory():
    # The one-shot draws peaked at 22.9 MiB.
    assert _traced_peak(verification.check_cs_identity) <= 2 * MiB


def test_embedding_constraints_holds_one_snapshot(grid):
    # 16,384 frames in R^9; holding all three snapshots peaked at 10.6 MiB, and
    # one snapshot of full (P, d) arrays at 5.6 MiB.  As columns on their
    # factors' axes the frame and clouds are small; the 0.81 MiB peak is
    # check_frame's row sums over the whole grid.  Bound: that plus 0.09 MiB.
    label, surface = next(p for p in grid if p[0].startswith("sphere product l=3 n=7"))
    peak = _traced_peak(
        lambda: verification.check_embedding_constraints(verification.Case(label, surface)))
    assert peak <= 0.9 * MiB


def _count_calls(monkeypatch, owner, attr, calls):
    """Count calls of owner.attr per the id of their first argument."""
    original = getattr(owner, attr)

    def counted(first, *args, **kwargs):
        calls[id(first)] = calls.get(id(first), 0) + 1
        return original(first, *args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


def test_each_surface_is_resolved_once(monkeypatch, grid):
    # One closed form, at most one collapse analysis and one quadrature per
    # surface, however many of the nine checks read them.
    profiles, reports, quadratures, runs = {}, {}, {}, {}
    _count_calls(monkeypatch, closed_form, "resolve_profile", profiles)
    _count_calls(monkeypatch, collapse, "analyze", reports)
    _count_calls(monkeypatch, flow_ode, "_collapse_time", quadratures)
    _count_calls(monkeypatch, flow_ode, "integrate", runs)
    results = verification.run_verification(surfaces=grid)
    assert len(results) == len(verification.INSTANCE_CHECKS) * len(grid) + len(
        verification.GLOBAL_CHECKS)
    ids = {id(surface) for _, surface in grid}
    assert profiles == dict.fromkeys(ids, 1)
    assert set(reports) <= ids and set(reports.values()) == {1}
    assert quadratures == dict.fromkeys(ids, 1)
    assert set(runs) <= ids and set(runs.values()) == {1}


def test_xi_zero_alone_runs_no_oracle(monkeypatch, grid):
    calls = {}
    for owner, attr in ((collapse, "analyze"), (flow_ode, "_collapse_time"),
                        (flow_ode, "integrate"), (flow_ode, "solve_ivp")):
        _count_calls(monkeypatch, owner, attr, calls)
    results = verification.run_verification(surfaces=grid, checks=["xi-zero"])
    assert len(results) == len(grid) and all(r.passed for r in results)
    assert calls == {}


def test_each_check_alone_gives_its_rows_of_the_full_run(grid):
    full = verification.run_verification(surfaces=grid)
    for name in verification.ALL_CHECKS:
        alone = verification.run_verification(surfaces=grid, checks=[name])
        assert alone == [r for r in full if r.check == name], name
