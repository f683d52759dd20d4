"""Family constructors, validation rules and curvature parametrizations."""

import json
import math

import numpy as np
import pytest

from isoflow import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERE,
    Block,
    InvalidInputError,
    IsoparametricSurface,
    SingularParallelError,
    flow_state,
    make_euclidean_cylinder,
    make_horosphere,
    make_hyperbolic_cylinder,
    make_hyperbolic_umbilic,
    make_minimal,
    make_sphere_product,
    make_sphere_umbilic,
    mean_curvature,
    sphere_curvatures_from_g,
    sphere_family_from_kappa1,
    surface_from_dict,
    surface_from_json,
)
from isoflow.catalog import sphere_curvature_ladder


def blocks_of(surface):
    return [(b.kappa, b.mult) for b in surface.blocks]


class TestEuclideanCylinder:
    def test_sphere_when_m_equals_n(self):
        s = make_euclidean_cylinder(2, 2, 1.0)
        assert blocks_of(s) == [(1.0, 2)]
        assert s.space_form is EUCLIDEAN

    def test_generic_cylinder(self):
        assert blocks_of(make_euclidean_cylinder(1, 2, 1.0)) == [(1.0, 1), (0.0, 1)]
        assert blocks_of(make_euclidean_cylinder(1, 3, -2.0)) == [(-2.0, 1), (0.0, 2)]

    def test_rejects_flat_plane(self):
        with pytest.raises(InvalidInputError):
            make_euclidean_cylinder(2, 2, 0.0)
        with pytest.raises(InvalidInputError):
            make_euclidean_cylinder(3, 2, 1.0)


class TestHorosphere:
    def test_unit_curvatures(self):
        assert blocks_of(make_horosphere(3, 1.0)) == [(1.0, 3)]
        assert blocks_of(make_horosphere(1, -1.0)) == [(-1.0, 1)]

    def test_routes_other_curvatures_away(self):
        with pytest.raises(InvalidInputError):
            make_horosphere(3, 0.5)


class TestHyperbolicUmbilic:
    def test_accepts_generic_kappa(self):
        assert blocks_of(make_hyperbolic_umbilic(2, 2.0)) == [(2.0, 2)]
        assert blocks_of(make_hyperbolic_umbilic(2, 0.5)) == [(0.5, 2)]

    def test_rejects_horosphere_and_geodesic_values(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(InvalidInputError):
                make_hyperbolic_umbilic(2, bad)


class TestHyperbolicCylinder:
    def test_reciprocal_pair(self):
        s = make_hyperbolic_cylinder(1, 1, 2.0)
        assert blocks_of(s) == [(2.0, 1), (0.5, 1)]
        s = make_hyperbolic_cylinder(2, 3, 3.0)
        assert blocks_of(s) == [(3.0, 2), (1.0 / 3.0, 3)]
        assert s.n == 5

    def test_requires_kappa_beyond_one(self):
        with pytest.raises(InvalidInputError):
            make_hyperbolic_cylinder(1, 1, 1.0)


class TestSphereUmbilic:
    def test_examples(self):
        assert blocks_of(make_sphere_umbilic(2, 1.0)) == [(1.0, 2)]
        assert blocks_of(make_sphere_umbilic(5, -0.3)) == [(-0.3, 5)]
        with pytest.raises(InvalidInputError):
            make_sphere_umbilic(2, 0.0)


class TestSphereProduct:
    def test_examples(self):
        assert blocks_of(make_sphere_product(1, 2, 2.0)) == [(2.0, 1), (-0.5, 1)]
        assert blocks_of(make_sphere_product(2, 5, 2.0)) == [(2.0, 2), (-0.5, 3)]

    def test_minimal_threshold(self):
        # At kappa1 = sqrt((n-l)/l) the mean curvature vanishes: Clifford case.
        l, n = 1, 2
        k_threshold = math.sqrt((n - l) / l)
        h = l * k_threshold + (n - l) * (-1.0 / k_threshold)
        assert h == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(InvalidInputError):
            make_sphere_product(l, n, k_threshold)

    def test_any_l_with_valid_kappa1_accepted(self):
        # No n - l > l restriction: l = 3, n = 7 with kappa1 past the threshold.
        s = make_sphere_product(3, 7, 1.3)
        assert s.mean_curvature_at_zero > 0


class TestSphereLadder:
    def test_g4_matches_explicit_quadruple(self):
        s = sphere_curvatures_from_g(4, math.atan2(1.0, 2.0), [1, 1, 1, 1])
        expected = (2.0, 1.0 / 3.0, -0.5, -3.0)
        np.testing.assert_allclose(s.curvatures, expected, atol=1e-12)

    def test_g2_midpoint(self):
        s = sphere_curvatures_from_g(2, math.pi / 4)
        np.testing.assert_allclose(s.curvatures, (1.0, -1.0), atol=1e-15)

    def test_g3_minimal_at_sqrt3(self):
        s = sphere_curvatures_from_g(3, math.pi / 6)
        np.testing.assert_allclose(s.curvatures, (math.sqrt(3.0), 0.0, -math.sqrt(3.0)), atol=1e-12)
        assert s.is_minimal

    def test_g_restriction_enforced(self):
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(5, 0.3)

    def test_multiplicity_patterns(self):
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(3, 0.3, [1, 2, 1])
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(3, 0.3, [3, 3, 3])
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(4, 0.3, [1, 2, 2, 1])
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(6, 0.3, [3] * 6)
        assert sphere_curvatures_from_g(4, 0.3, [2, 5, 2, 5]).n == 14

    def test_g4_multiplicity_classification(self):
        # FKM pairs {m, k delta(m) - m - 1}, plus {2, 2} and {4, 5}.
        for m1, m2 in [(1, 1), (1, 9), (2, 2), (2, 3), (3, 4), (4, 5), (4, 7),
                       (5, 2), (6, 9), (7, 8), (9, 6)]:
            for pair in ([m1, m2], [m2, m1]):
                assert sphere_curvatures_from_g(4, 0.3, pair * 2).n == 2 * (m1 + m2)
        for m1, m2 in [(3, 3), (5, 5), (2, 4), (3, 5), (4, 4)]:
            with pytest.raises(InvalidInputError, match="no g=4 hypersurface"):
                sphere_curvatures_from_g(4, 0.3, [m1, m2, m1, m2])

    def test_s_range_enforced(self):
        with pytest.raises(InvalidInputError):
            sphere_curvatures_from_g(4, math.pi / 3)
        with pytest.raises(InvalidInputError):
            sphere_family_from_kappa1(6, 1.0)  # below cot(pi/6)


class TestDirectValidation:
    def test_sphere_g_restriction(self):
        blocks = tuple(Block(float(k), 1) for k in (3.0, 1.0, 0.0, -1.0, -3.0))
        with pytest.raises(InvalidInputError):
            IsoparametricSurface(SPHERE, blocks, "sphere_g4")

    def test_g2_product_constraint(self):
        with pytest.raises(InvalidInputError):
            IsoparametricSurface(SPHERE, (Block(2.0, 1), Block(-0.4, 1)), "sphere_g2")

    def test_cylinder_product_constraint(self):
        with pytest.raises(InvalidInputError):
            IsoparametricSurface(HYPERBOLIC, (Block(2.0, 1), Block(0.4, 1)), "hyperbolic_cylinder")

    def test_block_separation(self):
        with pytest.raises(InvalidInputError):
            IsoparametricSurface(SPHERE, (Block(1.0, 1), Block(1.0 + 1e-12, 1)), "sphere_g2")

    def test_unknown_family_tag(self):
        with pytest.raises(InvalidInputError):
            IsoparametricSurface(SPHERE, (Block(1.0, 2),), "mystery")


class TestMinimal:
    def test_clifford(self):
        s = make_minimal(SPHERE, [(1.0, 1), (-1.0, 1)])
        assert s.is_minimal

    def test_equator(self):
        assert make_minimal(SPHERE, [(0.0, 4)]).is_minimal

    def test_g3_at_sqrt3(self):
        ladder = sphere_family_from_kappa1(3, math.sqrt(3.0)).blocks
        s = make_minimal(SPHERE, ladder, family="sphere_g3")
        assert s.is_minimal

    def test_rejects_nonminimal(self):
        with pytest.raises(InvalidInputError):
            make_minimal(SPHERE, [(1.0, 2)])


class TestMeanCurvature:
    def test_initial_values(self):
        assert mean_curvature(make_euclidean_cylinder(2, 5, 0.5), 0.0) == pytest.approx(1.0)
        assert mean_curvature(make_sphere_umbilic(2, 1.0), 0.0) == pytest.approx(2.0)

    def test_euclidean_sphere_at_offset(self):
        s2 = make_euclidean_cylinder(2, 2, 1.0)
        assert mean_curvature(s2, 0.5) == pytest.approx(4.0, rel=1e-14)

    def test_focal_offset_raises(self):
        s2 = make_euclidean_cylinder(2, 2, 1.0)
        with pytest.raises(SingularParallelError):
            mean_curvature(s2, 1.0)


class TestFlipAndParallel:
    def test_flip_negates_and_reorders(self):
        s = make_sphere_product(1, 3, 1.5)
        f = s.flipped()
        assert blocks_of(f) == [(1.0 / 1.5, 2), (-1.5, 1)]
        assert f.flipped().to_dict() == s.to_dict()

    def test_flip_keeps_euclidean_curved_block_first(self):
        s = make_euclidean_cylinder(1, 3, -2.0)
        assert blocks_of(s.flipped()) == [(2.0, 1), (0.0, 2)]

    def test_parallel_surface_composition(self):
        s = sphere_family_from_kappa1(4, 3.0, [1, 2, 1, 2])
        moved = s.parallel_surface(0.05)
        for b_new, b_old in zip(moved.blocks, s.blocks):
            assert b_new.mult == b_old.mult
        twice = moved.parallel_surface(0.03)
        direct = s.parallel_surface(0.08)
        np.testing.assert_allclose(twice.curvatures, direct.curvatures, atol=1e-10)


class TestSerialization:
    def test_round_trip(self):
        s = make_hyperbolic_cylinder(2, 3, 3.0)
        doc = json.loads(s.to_json())
        assert doc == {
            "space_form": -1,
            "blocks": [{"kappa": 3.0, "mult": 2}, {"kappa": 1.0 / 3.0, "mult": 3}],
            "family": "hyperbolic_cylinder",
        }
        assert surface_from_json(s.to_json()).to_dict() == s.to_dict()

    def test_from_dict_revalidates(self):
        doc = make_sphere_product(1, 2, 2.0).to_dict()
        doc["blocks"][1]["kappa"] = -0.4  # corrupt kappa2
        with pytest.raises(InvalidInputError):
            surface_from_dict(doc)

    def test_malformed_document(self):
        with pytest.raises(InvalidInputError):
            surface_from_dict({"space_form": 1})


def test_flow_state_snapshot():
    s2 = make_euclidean_cylinder(2, 2, 1.0)
    st = flow_state(s2, 0.5, t=0.2)
    assert st.kappa_hat == (pytest.approx(2.0),)
    assert st.mean_curvature == pytest.approx(4.0)
    assert st.factors == (pytest.approx(0.25),)


class TestAFormulaConsistency:
    """Ladder sums against the per-family closed-form expressions."""

    def test_g2_pair_product(self):
        for s in np.linspace(0.05, math.pi / 2 - 0.05, 25):
            k = sphere_curvature_ladder(2, float(s))
            assert abs(k[0] * k[1] + 1.0) <= 1e-12

    def test_g3(self):
        for s in np.linspace(0.05, math.pi / 3 - 0.05, 25):
            k = sphere_curvature_ladder(3, float(s))
            k1 = k[0]
            expected = 3.0 * k1 * (k1 * k1 - 3.0) / (3.0 * k1 * k1 - 1.0)
            assert sum(k) == pytest.approx(expected, abs=1e-9)

    def test_g4(self):
        for s in np.linspace(0.03, math.pi / 4 - 0.03, 25):
            k = sphere_curvature_ladder(4, float(s))
            k1 = k[0]
            expected = (k1**4 - 6 * k1 * k1 + 1.0) / (k1 * (k1 * k1 - 1.0))
            assert sum(k) == pytest.approx(expected, abs=1e-9)

    def test_g6_needs_triple_of_printed_fraction(self):
        # The single-fraction form of the six-curvature sum only matches the
        # ladder after multiplying by 3; both are checked explicitly.
        for s in np.linspace(0.02, math.pi / 6 - 0.02, 25):
            k = sphere_curvature_ladder(6, float(s))
            k1 = k[0]
            fraction = (k1**6 - 15 * k1**4 + 15 * k1 * k1 - 1.0) / (
                k1 * (k1 * k1 - 3.0) * (3.0 * k1 * k1 - 1.0)
            )
            assert sum(k) == pytest.approx(3.0 * fraction, abs=1e-9)
            if abs(sum(k)) > 0.5:
                assert abs(sum(k) - fraction) > 0.1 * abs(sum(k))
