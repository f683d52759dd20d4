"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Criterion 5 is implemented exactly at its stated evaluation offset
and tolerance; the offset/tolerance pairing is unattainable in principle
(see the test's docstring), so that single criterion reports FAIL while the
companion limit-form checks in criterion-5s demonstrate the focal identity
itself holds.
"""

import math

import numpy as np
import pytest

from isoflow import (
    SPHERE,
    estimate_tstar,
    export_csv,
    focal_dimension_expected,
    get_embedding,
    integrate,
    make_euclidean_cylinder,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_sphere_product,
    make_sphere_umbilic,
    parallel_curvature,
    resolve_profile,
    sample,
    analyze,
)
from isoflow.spaceform import _inverse_slope
from isoflow.errors import UnsupportedEmbeddingError
from isoflow.verification import (
    Case,
    builtin_grid,
    check_ode_residual,
    check_pythagorean,
    check_xi_zero,
    check_cs_identity,
    check_curvature_parametrization,
    check_typo_resolution,
)

GRID = builtin_grid()


def inner(sf, u, v):
    """Reference: the ambient inner product along the last axis, Lorentzian in H^n."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    prod = np.sum(u * v, axis=-1)
    if sf.curvature == -1:
        prod = prod - 2.0 * u[..., 0] * v[..., 0]
    return prod


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def test_criterion_1_benchmark_collapse_times():
    """Five benchmark collapse times, closed form against the ODE estimate."""
    benchmarks = [
        ("euclidean sphere m=n=2 kappa=1", make_euclidean_cylinder(2, 2, 1.0), 0.25),
        ("sphere umbilic n=2 kappa=1", make_sphere_umbilic(2, 1.0), math.log(2.0) / 4.0),
        ("hyperbolic umbilic n=2 kappa=2", make_hyperbolic_umbilic(2, 2.0),
         math.log(4.0 / 3.0) / 4.0),
        ("product of spheres l=1 n=2 kappa1=2", make_sphere_product(1, 2, 2.0),
         math.log(5.0 / 3.0) / 4.0),
        ("hyperbolic cylinder m1=m2=1 kappa1=2", make_hyperbolic_cylinder(1, 1, 2.0),
         math.log(5.0 / 3.0) / 4.0),
    ]
    worst_value = 0.0
    worst_delta = 0.0
    for label, surface, expected in benchmarks:
        t_closed = resolve_profile(surface).t_star
        t_ode = estimate_tstar(surface)
        worst_value = max(worst_value, abs(t_closed - expected))
        worst_delta = max(worst_delta, abs(t_closed - t_ode))
    passed = worst_value <= 1e-14 and worst_delta <= 1e-7
    report(1, passed,
           f"benchmark |t*-formula| <= {worst_value:.2e}, "
           f"closed-vs-ode |delta| <= {worst_delta:.2e} (tol 1e-7)")
    assert passed


def test_criterion_2_oracle_agreement():
    """Closed form against the ODE on the whole grid, 1e-8 on the flow window."""
    non_minimal = [(lbl, s) for lbl, s in GRID if not s.is_minimal]
    assert len(non_minimal) >= 50
    assert len({s.family for _, s in non_minimal}) == 9
    worst = 0.0
    worst_label = ""
    for label, surface in non_minimal:
        profile = resolve_profile(surface)
        hi = 0.99 * profile.t_star if math.isfinite(profile.t_star) else 10.0
        ts = np.linspace(0.0, hi, 200)
        numeric = integrate(surface, float(hi))
        diff = float(np.max(np.abs(profile.xi(ts) - numeric.xi(ts))))
        if diff > worst:
            worst, worst_label = diff, label
    passed = worst <= 1e-8
    report(2, passed,
           f"{len(non_minimal)} instances / 9 families, "
           f"max |xi_closed - xi_ode| = {worst:.2e} at [{worst_label}] (tol 1e-8)")
    assert passed


def test_criterion_3_ode_residual():
    """Finite differences of every closed form satisfy the flow ODE to 1e-6."""
    worst = 0.0
    for label, surface in GRID:
        passed, detail = check_ode_residual(Case(label, surface))
        assert passed, f"{label}: {detail}"
        worst = max(worst, float(detail.split("=")[1].split("(")[0]))
    report(3, True, f"100 interior samples per instance, max residual = {worst:.2e} (tol 1e-6)")


def test_criterion_4_focal_dimensions_and_limits():
    """Focal dimensions and limit kinds match the catalog's predictions."""
    checked = 0
    for label, surface in GRID:
        profile = resolve_profile(surface)
        rep = analyze(surface, profile)
        expected = focal_dimension_expected(surface)
        if expected is not None:
            assert rep.focal_dimension == expected, label
            checked += 1
            continue
        if surface.is_minimal:
            assert rep.limit_kind == "eternal", label
        elif surface.family in ("sphere_umbilic", "hyperbolic_umbilic") or (
            surface.family == "euclidean_cylinder" and surface.g == 1
        ):
            if math.isfinite(profile.t_star):
                assert rep.limit_kind == "point", label
            else:
                # |kappa| < 1 umbilic: totally geodesic limit, curvature dead by t=50
                assert rep.limit_kind == "totally_geodesic_limit", label
                hat = parallel_curvature(surface.space_form,
                                         surface.blocks[0].kappa, profile.xi(50.0))
                assert abs(hat) < 1e-3, label
        elif surface.family == "horosphere":
            assert rep.limit_kind == "eternal", label
            kappa = surface.blocks[0].kappa
            for t in (1.0, 10.0, 50.0):
                assert parallel_curvature(surface.space_form, kappa,
                                          profile.xi(t)) == kappa, label
        checked += 1
    report(4, True, f"{checked} instances: dimensions exact, limit kinds as predicted")


def _focal_instances():
    for label, surface in GRID:
        if surface.is_minimal:
            continue
        if surface.space_form.curvature == 0:
            continue
        profile = resolve_profile(surface)
        if not math.isfinite(profile.t_star):
            continue
        yield label, surface, profile


def test_criterion_5_focal_condition_at_offset():
    """Focal condition |slope(xi(t* - eps)) - kappa_deg| <= 1e-6 at
    eps = max(1e-8, 1e-8 t*).

    This criterion cannot hold as stated: xi approaches its focal value at a
    square-root rate, xi* - xi(t* - eps) ~ sqrt(2 m eps), so the residual at
    eps ~ 1e-8 is of order (1 + kappa1^2) * 1e-4 -- three to four orders
    above the 1e-6 bound.  The bound would require eps ~ 1e-14.  The test
    evaluates the stated quantity honestly and fails; the focal identity
    itself is verified at the exact limit in the companion test below.
    """
    worst = 0.0
    best = math.inf
    for label, surface, profile in _focal_instances():
        rep = analyze(surface, profile)
        eps = max(1e-8, 1e-8 * profile.t_star)
        xi_end = profile.xi(profile.t_star - eps)
        k_deg = surface.blocks[rep.degenerate_block_index].kappa
        residual = abs(_inverse_slope(surface.space_form, xi_end) - k_deg)
        worst = max(worst, residual)
        best = min(best, residual)
    passed = worst <= 1e-6
    report(5, passed,
           f"residual at t*-eps ranges [{best:.2e}, {worst:.2e}] against tol 1e-6; "
           "the sqrt-rate approach makes this offset/tolerance pairing unattainable")
    assert passed, (
        f"focal residual at eps = max(1e-8, 1e-8 t*) lies in [{best:.3e}, {worst:.3e}]; "
        "xi* - xi(t* - eps) ~ sqrt(2 m eps) implies residual ~ (1 + kappa1^2) sqrt(2 m eps) "
        "~ 1e-4, so the 1e-6 bound cannot be met at this offset (it would need "
        "eps ~ 1e-14). The identity itself holds: see "
        "test_criterion_5s_focal_condition_at_exact_limit."
    )


def test_criterion_5s_focal_condition_at_exact_limit():
    """Companion check: the focal identity holds at the exact collapse limit,
    and the offset residual follows the predicted square-root rate."""
    worst_limit = 0.0
    for label, surface, profile in _focal_instances():
        rep = analyze(surface, profile)
        k_deg = surface.blocks[rep.degenerate_block_index].kappa
        residual = abs(_inverse_slope(surface.space_form, profile.xi_star) - k_deg)
        worst_limit = max(worst_limit, residual)
    assert worst_limit <= 1e-6

    # rate check on one representative: residual(eps) ~ C sqrt(eps)
    surface = make_sphere_product(1, 2, 2.0)
    profile = resolve_profile(surface)
    r = []
    for eps in (1e-6, 1e-8, 1e-10):
        xi_end = profile.xi(profile.t_star - eps)
        r.append(abs(_inverse_slope(SPHERE, xi_end) - 2.0))
    assert r[0] / r[1] == pytest.approx(10.0, rel=0.05)
    assert r[1] / r[2] == pytest.approx(10.0, rel=0.05)
    report("5s", True,
           f"focal identity at the exact limit <= {worst_limit:.2e}; offset residual "
           "scales as sqrt(eps) as predicted")


def test_criterion_6_identity_suite():
    """cs identity to 4 ulp over 1e6 samples; pair identities; xi(0) = 0."""
    ident_passed, ident_detail = check_cs_identity()
    assert ident_passed, ident_detail
    worst_pair = 0.0
    worst_zero = 0.0
    for label, surface in GRID:
        case = Case(label, surface)
        pair_passed, pair_detail = check_pythagorean(case)
        zero_passed, zero_detail = check_xi_zero(case)
        assert pair_passed, f"{label}: {pair_detail}"
        assert zero_passed, f"{label}: {zero_detail}"
    report(6, True, f"{ident_detail}; pair identities <= 1e-10; |xi(0)| <= 1e-12")


def test_criterion_7_curvature_parametrization():
    passed, detail = check_curvature_parametrization()
    report(7, passed, detail)
    assert passed


def test_criterion_8_collapse_time_form_equivalences():
    passed, detail = check_typo_resolution()
    report(8, passed, detail)
    assert passed


def test_criterion_9_export_constraints(tmp_path):
    """Exported clouds stay on the ambient quadric to 1e-10 at every time."""
    worst = 0.0
    exported = 0
    for label, surface in GRID:
        try:
            get_embedding(surface)
        except UnsupportedEmbeddingError:
            continue
        if surface.space_form.curvature == 0:
            continue  # flat ambient carries no quadric constraint
        profile = resolve_profile(surface)
        t_star = profile.t_star
        if math.isinf(t_star):
            # keep |xi| <= 1 so the quadric residual is resolvable at 1e-10
            times = [0.0, 0.5 / surface.n, 1.0 / surface.n]
        else:
            times = [0.0, 0.5 * t_star, 0.9 * t_star]
        for t in times:
            snap = sample(surface, 5, t, profile)
            norms = inner(surface.space_form, snap.points, snap.points)
            drift = float(np.max(np.abs(norms - surface.space_form.curvature)))
            worst = max(worst, drift)
            exported += 1
    # a real file export as part of the check
    surface = make_sphere_product(1, 2, 2.0)
    profile = resolve_profile(surface)
    snap = sample(surface, 6, 0.05, profile)
    export_csv(snap, tmp_path / "snapshot.csv")
    assert (tmp_path / "snapshot.csv").exists()
    passed = worst <= 1e-10
    report(9, passed, f"{exported} snapshots, max quadric drift = {worst:.2e} (tol 1e-10)")
    assert passed
