"""Closed-form flow profiles: values, collapse times and identities per family."""

import math

import numpy as np
import pytest

from isoflow import (
    EUCLIDEAN,
    Block,
    InvalidInputError,
    IsoparametricSurface,
    NumericalRangeError,
    estimate_tstar,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    mean_curvature,
    resolve_profile,
    sphere_family_from_kappa1,
)
from isoflow.catalog import SPHERE, parallel_curvature
from isoflow.spaceform import focal_offset
from isoflow.verification import a_formula, builtin_grid


def fd_slope_at_zero(profile, h=1e-7):
    return (profile.xi(h) - profile.xi(-h)) / (2 * h)


def paper_sphere(g, n, a, b, t):
    """(t*, xi(t)) of the paper's sphere closed form in its constants a and b.

    q(t) = (a + b) e^{g n t} - b runs from a to sqrt(a^2 + g^2) at t*, and
    g xi = arccot(a / g) - arccos(q / sqrt(a^2 + g^2)).
    """
    big = math.hypot(a, g)
    q = (a + b) * math.exp(g * n * t) - b
    return (math.log((b + big) / (a + b)) / (g * n),
            (math.atan2(g, a) - math.acos(q / big)) / g)


def paper_hyperbolic(g, n, a, b, t):
    """(t*, xi(t)) of the paper's hyperbolic closed form in its constants a > g and b.

    ell(t) = b + (a - b) e^{-g n t} runs from a to sqrt(a^2 - g^2) at t*, and
    g xi = artanh(g / a) - arcosh(ell / sqrt(a^2 - g^2)).
    """
    big = math.sqrt(a * a - g * g)
    ell = b + (a - b) * math.exp(-g * n * t)
    return (math.log((a - b) / (big - b)) / (g * n),
            (math.atanh(g / a) - math.acosh(ell / big)) / g)


def g4_b(n, k1, m1, m2):
    """The paper's b of a g=4 family with multiplicities (m1, m2, m1, m2)."""
    return 2.0 * (m1 - m2) * (k1**2 + 1.0) ** 2 / (n * k1 * (k1**2 - 1.0))


def assert_paper_profile(prof, paper, g, n, a, b, sign=1.0, **tol):
    """t* and xi(t*/2) of ``prof`` against the paper's closed form, to pytest.approx ``tol``."""
    t_star = paper(g, n, a, b, 0.0)[0]
    assert prof.t_star == pytest.approx(t_star, **tol)
    t = 0.5 * t_star
    assert sign * prof.xi(t) == pytest.approx(paper(g, n, a, b, t)[1], **tol)


class TestEuclidean:
    def test_values(self):
        prof = resolve_profile(make_euclidean_cylinder(2, 2, 1.0))
        assert prof.xi(0.0) == 0.0
        assert prof.t_star == pytest.approx(0.25, abs=1e-16)

    def test_cylinder_m1_n3_kappa2(self):
        prof = resolve_profile(make_euclidean_cylinder(1, 3, 2.0))
        assert prof.t_star == pytest.approx(0.125)
        assert prof.xi(0.1) == pytest.approx((1.0 - math.sqrt(0.2)) / 2.0, rel=1e-14)
        assert estimate_tstar(make_euclidean_cylinder(1, 3, 2.0)) == pytest.approx(
            prof.t_star, abs=1e-8
        )

    def test_family_mismatch(self):
        # A non-minimal sphere tagged "minimal" is rejected where it is built.
        with pytest.raises(InvalidInputError, match="family 'minimal' needs"):
            IsoparametricSurface(EUCLIDEAN, (Block(2.0, 2),), "minimal")


class TestHorosphere:
    def test_linear_offset(self):
        prof = resolve_profile(make_horosphere(3, 1.0))
        assert prof.xi(2.0) == pytest.approx(6.0, rel=1e-15)
        assert prof.xi(0.0) == 0.0
        assert prof.t_star == math.inf

    def test_curvature_constant_along_flow(self):
        surface = make_horosphere(3, 1.0)
        prof = resolve_profile(surface)
        for t in (0.5, 3.0, 20.0):
            assert parallel_curvature(surface.space_form, 1.0, prof.xi(t)) == 1.0

    def test_negative_orientation(self):
        prof = resolve_profile(make_horosphere(2, -1.0))
        assert prof.orientation_flipped
        assert prof.xi(1.5) == pytest.approx(-3.0, rel=1e-15)


class TestHyperbolicUmbilic:
    def test_collapse_time(self):
        prof = resolve_profile(make_hyperbolic_umbilic(2, 2.0))
        assert prof.t_star == pytest.approx(math.log(4.0 / 3.0) / 4.0, rel=1e-15)
        assert prof.xi(0.0) == pytest.approx(0.0, abs=1e-16)

    def test_curvature_decay_for_small_kappa(self):
        surface = make_hyperbolic_umbilic(2, 0.5)
        prof = resolve_profile(surface)
        assert prof.t_star == math.inf
        n, kappa = 2, 0.5
        for t in (0.5, 2.0, 10.0):
            q = 1 - kappa**2 + kappa**2 * math.exp(-2 * n * t)
            expected = kappa * math.exp(-n * t) / math.sqrt(q)
            got = parallel_curvature(surface.space_form, kappa, prof.xi(t))
            assert got == pytest.approx(expected, rel=1e-10)
        assert abs(parallel_curvature(surface.space_form, kappa, prof.xi(40.0))) < 1e-30


class TestHyperbolicCylinder:
    def test_parameters(self):
        surface = make_hyperbolic_cylinder(1, 1, 2.0)
        prof = resolve_profile(surface)
        # a = kappa1 + kappa2 and b = a - g H(0) / n, which is 0 for m1 = m2
        a = 2.0 + 0.5
        b = a - 2 * surface.mean_curvature_at_zero / surface.n
        assert b == 0.0
        assert_paper_profile(prof, paper_hyperbolic, 2, surface.n, a, b)
        # ell(0) = a makes cosh(2 xi(0)) = 1
        assert abs(prof.xi(0.0)) < 1e-15

    def test_collapse_time(self):
        prof = resolve_profile(make_hyperbolic_cylinder(1, 1, 2.0))
        assert prof.t_star == pytest.approx(math.log(5.0 / 3.0) / 4.0, rel=1e-15)
        assert estimate_tstar(make_hyperbolic_cylinder(1, 1, 2.0)) == pytest.approx(
            prof.t_star, abs=1e-7
        )

    def test_focal_limit_is_coth_inverse(self):
        surface = make_hyperbolic_cylinder(2, 3, 3.0)
        prof = resolve_profile(surface)
        xi_star = prof.xi_star
        assert 1.0 / math.tanh(xi_star) == pytest.approx(3.0, abs=1e-6)


    @pytest.mark.parametrize("kappa1", [1.0 + 1e-9, 1.0 + 1e-6])
    def test_kappa_near_one_matches_cosh_relation(self, kappa1):
        # For m1 = m2 the flow obeys cosh(2 (r - xi)) = cosh(2 r) e^{-2 n t}
        # with coth r = kappa1; a^2 - 4 cancels to rounding noise here.
        surface = make_hyperbolic_cylinder(1, 1, kappa1)
        prof = resolve_profile(surface)
        t = 0.5 * prof.t_star
        r = 0.5 * math.log((kappa1 + 1.0) / (kappa1 - 1.0))
        expected = r - 0.5 * math.acosh(math.cosh(2.0 * r) * math.exp(-2.0 * surface.n * t))
        assert prof.xi(t) == pytest.approx(expected, rel=1e-10)


class TestSphereUmbilic:
    def test_collapse_time(self):
        prof = resolve_profile(make_sphere_umbilic(2, 1.0))
        assert prof.t_star == pytest.approx(math.log(2.0) / 4.0, rel=1e-15)
        assert prof.xi(0.0) == pytest.approx(0.0, abs=1e-16)

    def test_matches_ode_at_interior_time(self):
        surface = make_sphere_umbilic(2, 1.0)
        prof = resolve_profile(surface)
        from isoflow import integrate

        num = integrate(surface, 0.1)
        assert prof.xi(0.1) == pytest.approx(num.xi(0.1), abs=1e-8)


class TestSphereG2:
    def test_parameters(self):
        surface = make_sphere_product(1, 2, 2.0)
        prof = resolve_profile(surface)
        # a = kappa1 + kappa2 and b = g H(0) / n - a, which is 0 for l = n - l
        a = 2.0 - 0.5
        b = 2 * surface.mean_curvature_at_zero / surface.n - a
        assert b == 0.0
        assert_paper_profile(prof, paper_sphere, 2, 2, a, b)
        # q(t) = a e^{4 t} = sqrt(a^2 + 4) cos(2 (xi* - xi(t)))
        xi_star = prof.xi_star
        for t, q in ((0.0, 1.5), (0.1, 1.5 * math.exp(0.4))):
            assert 2.5 * math.cos(2.0 * (xi_star - prof.xi(t))) == pytest.approx(q, rel=1e-14)

    def test_collapse_time(self):
        prof = resolve_profile(make_sphere_product(1, 2, 2.0))
        assert prof.t_star == pytest.approx(math.log(5.0 / 3.0) / 4.0, rel=1e-15)

    def test_pair_is_unit_at_zero(self):
        prof = resolve_profile(make_sphere_product(2, 5, 2.0))
        co, si = prof.angle_pair(0.0)
        assert (co, si) == (pytest.approx(1.0), pytest.approx(0.0))


class TestSphereG3:
    def test_a_value(self):
        surface = sphere_family_from_kappa1(3, 2.0)
        prof = resolve_profile(surface)
        a = a_formula(3, 2.0)
        assert a == pytest.approx(6.0 / 11.0, abs=1e-12)
        assert_paper_profile(prof, paper_sphere, 3, surface.n, a, 0.0, rel=0.0, abs=1e-12)

    def test_collapse_time_formula(self):
        prof = resolve_profile(sphere_family_from_kappa1(3, 2.0))
        a = 6.0 / 11.0
        assert prof.t_star == pytest.approx(math.log(1.0 + 9.0 / a**2) / 18.0, rel=1e-12)

    def test_slope_at_zero_equals_mean_curvature(self):
        for m, k1 in ((1, 2.0), (2, 3.0), (1, 1.0)):
            surface = sphere_family_from_kappa1(3, k1, [m] * 3)
            prof = resolve_profile(surface)
            assert fd_slope_at_zero(prof) == pytest.approx(
                mean_curvature(surface, 0.0), abs=1e-6
            )


class TestSphereG4:
    def test_positive_orientation_values(self):
        surface = sphere_family_from_kappa1(4, 3.0)
        prof = resolve_profile(surface)
        assert not prof.orientation_flipped
        a, b = a_formula(4, 3.0), g4_b(surface.n, 3.0, 1, 1)
        assert a == pytest.approx(7.0 / 6.0, abs=1e-12)
        assert b == 0.0
        assert_paper_profile(prof, paper_sphere, 4, surface.n, a, b, rel=0.0, abs=1e-12)
        assert prof.t_star == pytest.approx(math.log(25.0 / 7.0) / 16.0, rel=1e-12)

    def test_flip_applied_for_small_kappa1(self):
        surface = sphere_family_from_kappa1(4, 2.0)
        assert surface.mean_curvature_at_zero < 0
        prof = resolve_profile(surface)
        assert prof.orientation_flipped
        # flow moves toward negative offsets but collapses at positive time
        assert prof.xi(prof.t_star / 2) < 0
        assert math.isfinite(prof.t_star) and prof.t_star > 0

    def test_unequal_multiplicities(self):
        surface = sphere_family_from_kappa1(4, 3.0, [2, 1, 2, 1])
        prof = resolve_profile(surface)
        n, k1, m1, m2 = surface.n, 3.0, 2, 1
        assert not prof.orientation_flipped
        assert_paper_profile(prof, paper_sphere, 4, n, a_formula(4, k1), g4_b(n, k1, m1, m2),
                             rel=1e-12)
        assert estimate_tstar(surface) == pytest.approx(prof.t_star, abs=1e-7)

    def test_unequal_multiplicities_flipped(self):
        # (m1, m2) = (1, 2) at kappa1 = 3 has a + b < 0: resolved through the
        # flipped orientation, whose b is computed from the flipped blocks.
        surface = sphere_family_from_kappa1(4, 3.0, [1, 2, 1, 2])
        assert surface.mean_curvature_at_zero < 0
        prof = resolve_profile(surface)
        assert prof.orientation_flipped
        flipped = surface.flipped()
        n, k1 = flipped.n, flipped.blocks[0].kappa
        m1, m2 = flipped.blocks[0].mult, flipped.blocks[1].mult
        assert (k1, m1, m2) == (pytest.approx(2.0), 2, 1)
        # The profile restores the given orientation: its xi is the flipped one negated.
        assert_paper_profile(prof, paper_sphere, 4, n, a_formula(4, k1), g4_b(n, k1, m1, m2),
                             rel=1e-12, sign=-1.0)
        assert estimate_tstar(surface) == pytest.approx(prof.t_star, abs=1e-7)


class TestSphereG6:
    def test_a_is_ladder_sum(self):
        surface = sphere_family_from_kappa1(6, 4.0)
        prof = resolve_profile(surface)
        a = a_formula(6, 4.0)
        assert a == pytest.approx(sum(surface.curvatures), abs=1e-12)
        assert prof.t_star == pytest.approx(math.log1p(36.0 / a**2) / 72.0, rel=1e-12)
        assert_paper_profile(prof, paper_sphere, 6, surface.n, a, 0.0, rel=1e-12)

    def test_flipped_instance_matches_ode(self):
        surface = sphere_family_from_kappa1(6, 3.0)
        prof = resolve_profile(surface)
        assert prof.orientation_flipped
        assert estimate_tstar(surface) == pytest.approx(prof.t_star, abs=1e-7)

    def test_slope_at_zero_equals_mean_curvature(self):
        for m, k1 in ((1, 2.0), (1, 4.0), (2, 5.0)):
            surface = sphere_family_from_kappa1(6, k1, [m] * 6)
            prof = resolve_profile(surface)
            assert fd_slope_at_zero(prof) == pytest.approx(
                mean_curvature(surface, 0.0), abs=1e-6
            )


class TestNearMinimalStress:
    def test_near_threshold_product_still_tracks(self):
        # Barely above the minimal threshold the equilibrium is exponentially
        # repelling (perturbations grow like exp(H' t), here e^16), so the
        # achievable closed-vs-numeric agreement degrades from 1e-10 to the
        # 1e-5 scale.  The closed form itself stays well conditioned.
        import numpy as np
        from isoflow import estimate_tstar, integrate

        surface = make_sphere_product(1, 2, 1.0 + 1e-7)
        prof = resolve_profile(surface)
        assert prof.t_star == pytest.approx(math.log(2.0000002 / 2e-7) / 4.0, rel=1e-6)
        assert estimate_tstar(surface) == pytest.approx(prof.t_star, abs=1e-5)
        hi = 0.99 * prof.t_star
        num = integrate(surface, hi)
        ts = np.linspace(0.0, hi, 100)
        assert float(np.max(np.abs(prof.xi(ts) - num.xi(ts)))) < 1e-4

    def test_randomized_family_sweep(self):
        # Seeded random instances across the spherical families: collapse
        # times from both engines stay within the grid tolerance.
        rng = np.random.default_rng(42)
        for _ in range(12):
            g = int(rng.choice([2, 3, 4, 6]))
            s = float(rng.uniform(0.08, math.pi / g - 0.08))
            if g == 2:
                mults = [int(rng.integers(1, 4)), int(rng.integers(1, 4))]
            elif g == 3:
                mults = [int(rng.choice([1, 2, 4, 8]))] * 3
            elif g == 4:
                # Only pairs a g=4 hypersurface has: (3, 3) is not one.
                pairs = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
                mults = list(pairs[int(rng.integers(len(pairs)))]) * 2
            else:
                mults = [int(rng.choice([1, 2]))] * 6
            from isoflow import sphere_curvatures_from_g, estimate_tstar

            surface = sphere_curvatures_from_g(g, s, mults)
            if surface.is_minimal:
                continue
            prof = resolve_profile(surface)
            assert estimate_tstar(surface) == pytest.approx(prof.t_star, abs=1e-7)
            assert abs(prof.xi(0.0)) < 1e-12


class TestResolveDispatch:
    def test_minimal_constant_profile(self):
        clifford = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        prof = resolve_profile(clifford)
        assert prof.t_star == math.inf
        ts = np.linspace(-5, 5, 11)
        np.testing.assert_allclose(prof.xi(ts), 0.0)

    def test_underflowed_tstar_raises(self):
        # t* = 1 / (2 kappa^2) = 5e-601 underflows to 0: an error, not t* = 0.
        with pytest.raises(NumericalRangeError, match="collapse time underflows"):
            resolve_profile(make_euclidean_cylinder(1, 1, 1e300))

    def test_subnormal_tstar_raises(self):
        # t* ~ 1 / (2 kappa^2) = 5e-309 is subnormal, with a few digits of its own.
        with pytest.raises(NumericalRangeError, match="collapse time underflows"):
            resolve_profile(make_sphere_umbilic(1, 1e154))

    def test_domain_rejects_past_collapse(self):
        prof = resolve_profile(make_sphere_umbilic(2, 1.0))
        with pytest.raises(InvalidInputError):
            prof.xi(prof.t_star + 1e-3)

    @pytest.mark.parametrize("t", [math.nan, np.array([0.0, math.nan])], ids=["scalar", "array"])
    def test_domain_rejects_nan(self, t):
        # NaN lies in no domain: invalid input (exit 2), not a numerical failure (exit 4).
        for surface in (make_sphere_product(1, 2, 2.0), make_horosphere(2, 1.0)):
            with pytest.raises(InvalidInputError, match="outside the profile domain"):
                resolve_profile(surface).xi(t)

    def test_limit_evaluation_at_t_star(self):
        prof = resolve_profile(make_sphere_umbilic(2, 1.0))
        # the collapse offset of a unit-curvature sphere is arccot(1) = pi/4
        assert prof.xi_star == pytest.approx(math.pi / 4, abs=1e-7)

    def test_limit_is_the_focal_offset_on_grid(self):
        for label, surface in builtin_grid():
            prof = resolve_profile(surface)
            if not math.isfinite(prof.t_star):
                continue
            direction = 1 if surface.mean_curvature_at_zero > 0 else -1
            offsets = (focal_offset(surface.space_form, b.kappa, direction)
                       for b in surface.blocks)
            nearest = min((o for o in offsets if o is not None), key=abs)
            assert prof.xi_star == pytest.approx(nearest, rel=1e-13), label

    def test_sign_restoration_on_flip(self):
        surface = make_sphere_umbilic(3, -0.5)
        prof = resolve_profile(surface)
        assert prof.orientation_flipped
        # direct formula evaluation with signed kappa must agree
        n, kappa = 3, -0.5
        t = 0.05
        q = kappa**2 + 1 - kappa**2 * math.exp(2 * n * t)
        si = kappa * (math.exp(n * t) - math.sqrt(q)) / (kappa**2 + 1)
        co = (kappa**2 * math.exp(n * t) + math.sqrt(q)) / (kappa**2 + 1)
        assert prof.xi(t) == pytest.approx(math.atan2(si, co), rel=1e-12)
