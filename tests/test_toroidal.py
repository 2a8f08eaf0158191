from fractions import Fraction
from itertools import product

import pytest

from siegelkit import toroidal
from siegelkit.toroidal import (
    ConeSigma,
    dual_monoid_generators,
    gl2_image,
    monomial_map,
    principal_cone,
    principal_cone_fixture,
    verify_divisor_pullback,
)


def test_principal_cone_fixture():
    fx = principal_cone_fixture(2)
    assert len(fx.cone.rays) == 3
    assert fx.cone.is_smooth()
    assert fx.face_counts == {0: 1, 1: 3, 2: 3, 3: 1}
    # one adjacent image per facet, each sharing exactly two rays
    assert len(fx.neighbors) == 3
    shared_facets = set()
    for u, image in fx.neighbors:
        shared = image.ray_set() & fx.cone.ray_set()
        assert len(shared) == 2
        shared_facets.add(frozenset(shared))
    assert len(shared_facets) == 3
    assert fx.locally_admissible


def test_principal_cone_neighbors_are_pinned():
    assert principal_cone_fixture(2).neighbors == (
        (((1, 1), (0, 1)), ConeSigma(((1, 0, 0), (1, 1, 1), (0, 0, 1)), 3)),
        (((1, -1), (0, 1)), ConeSigma(((1, 0, 0), (1, -1, 1), (4, -2, 1)), 3)),
        (((0, 1), (1, -1)), ConeSigma(((0, 0, 1), (1, -1, 1), (1, -2, 4)), 3)),
    )


def _fraction_coords(cone, point):
    """Ray coordinates of a point by Fraction Gauss-Jordan on [t(rays) | point]."""
    n = len(cone.rays)
    rows = [[Fraction(cone.rays[j][i]) for j in range(n)] + [Fraction(point[i])] for i in range(n)]
    for k in range(n):
        pivot = next(r for r in range(k, n) if rows[r][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [x / rows[k][k] for x in rows[k]]
        for r in range(n):
            if r != k:
                rows[r] = [x - rows[r][k] * y for x, y in zip(rows[r], rows[k])]
    return [row[n] for row in rows]


def test_contains_matches_a_fraction_inverse_on_a_grid():
    fx = principal_cone_fixture(2)
    for cone in [fx.cone] + [image for _, image in fx.neighbors]:
        for point in product(range(-3, 4), repeat=3):
            coords = _fraction_coords(cone, point)
            assert cone.contains(point) == all(c >= 0 for c in coords)
            assert cone.contains(point, strict=True) == all(c > 0 for c in coords)


OVERLAPPING = ConeSigma(((1, 0, 0), (0, 0, 1), (2, -1, 1)), 3)


def test_sampled_overlap_check_can_fail():
    sigma = principal_cone(2)
    assert OVERLAPPING.is_smooth()
    # 3 (1, 0, 0) + (0, 0, 1) + (1, -1, 1) = (4, -1, 2) = 2 (1, 0, 0) + (0, 0, 1) + (2, -1, 1)
    assert sigma.contains((4, -1, 2), strict=True) and OVERLAPPING.contains((4, -1, 2), strict=True)
    assert not sigma.across_facet(OVERLAPPING)


def test_across_facet_accepts_the_pinned_neighbors_and_refuses_other_pairs():
    fx = principal_cone_fixture(2)
    assert all(fx.cone.across_facet(image) for _, image in fx.neighbors)
    with pytest.raises(ValueError, match="sharing all rays but one"):
        fx.cone.across_facet(gl2_image(((1, 1), (1, 2)), fx.cone))     # shares one ray
    with pytest.raises(ValueError, match="sharing all rays but one"):
        fx.cone.across_facet(ConeSigma(((1, 0, 0), (0, 0, 1)), 3))      # not a top cone
    with pytest.raises(ValueError, match="sharing all rays but one"):
        fx.cone.across_facet(fx.cone)


def _strictly_shared_points(cones):
    return [p for p in product(range(-6, 7), repeat=3)
            if sum(cone.contains(p, strict=True) for cone in cones) > 1]


def test_fixture_cones_share_no_interior_point_on_a_grid():
    fx = principal_cone_fixture(2)
    assert _strictly_shared_points([fx.cone] + [image for _, image in fx.neighbors]) == []
    assert len(_strictly_shared_points([fx.cone, OVERLAPPING])) == 28


def test_gl2_image_rejects_non_unimodular_matrices():
    with pytest.raises(ValueError, match="determinant"):
        gl2_image(((2, 1), (1, 2)), principal_cone(2))
    with pytest.raises(ValueError):
        gl2_image(((Fraction(1, 2), 0), (0, 2)), principal_cone(2))
    assert gl2_image(((0, 1), (1, 0)), principal_cone(2)).ray_set() == principal_cone(2).ray_set()


def test_shear_maps_cone_to_adjacent():
    sigma = principal_cone(2)
    image = gl2_image(((1, 1), (0, 1)), sigma)
    shared = image.ray_set() & sigma.ray_set()
    assert shared == frozenset({(1, 0, 0), (0, 0, 1)})
    assert image.ray_set() != sigma.ray_set()


def test_cone_validation():
    with pytest.raises(ValueError):
        ConeSigma(((2, 0, 0), (0, 0, 1), (1, -1, 1)), 3)       # non-primitive ray
    with pytest.raises(ValueError):
        ConeSigma(((1, 0, 0), (0, 0, 1), (1, 0, 1)), 3)        # dependent rays
    with pytest.raises(ValueError):
        principal_cone(3)


def test_dual_monoid_generators():
    sigma = principal_cone(2)
    gens1 = dual_monoid_generators(sigma, 1)
    assert len(gens1) == 3
    for a, gen in enumerate(gens1):
        for b, ray in enumerate(sigma.rays):
            pair = sum(x * y for x, y in zip(gen, ray))
            assert pair == (1 if a == b else 0)
            assert pair >= 0                                    # duality
    gens2 = dual_monoid_generators(sigma, 2)
    for g1, g2 in zip(gens1, gens2):
        assert tuple(2 * x for x in g2) == g1                   # half scale, same direction
    # scaled pairing <delta_a / l, l zeta_b> is the identity again
    level = 2
    for a, gen in enumerate(gens2):
        for b, ray in enumerate(sigma.rays):
            assert sum(x * Fraction(level) * y for x, y in zip(gen, ray)) == (1 if a == b else 0)


def test_dual_monoid_requires_smooth_cone():
    nonsmooth = ConeSigma(((1, 0), (1, 2)), 2)
    assert not nonsmooth.is_smooth()
    with pytest.raises(NotImplementedError):
        dual_monoid_generators(nonsmooth, 1)


def test_monomial_map():
    sigma = principal_cone(2)
    ident = monomial_map(3, 3, sigma)
    assert ident.scaling == 1
    assert ident.exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    six_two = monomial_map(6, 2, sigma)
    assert six_two.scaling == 3
    with pytest.raises(ValueError):
        monomial_map(6, 4, sigma)


def test_monomial_map_composition():
    sigma = principal_cone(2)
    assert monomial_map(6, 2, sigma).compose(monomial_map(2, 1, sigma)).exponents == \
        monomial_map(6, 1, sigma).exponents
    assert monomial_map(12, 6, sigma).compose(monomial_map(6, 3, sigma)).exponents == \
        monomial_map(12, 3, sigma).exponents


@pytest.mark.parametrize("n, m", [(2, 1), (3, 1), (4, 2), (6, 2), (6, 3), (5, 5)])
def test_divisor_pullback_table(n, m):
    table = verify_divisor_pullback(n, m, principal_cone(2))
    assert table == (n // m,) * 3


def test_divisor_pullback_fails_when_the_level_is_ignored(monkeypatch):
    generators = toroidal.dual_monoid_generators
    monkeypatch.setattr(toroidal, "dual_monoid_generators", lambda cone, level: generators(cone, 1))
    assert monomial_map(6, 2, principal_cone(2)).exponents == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(AssertionError, match="n/m"):
        verify_divisor_pullback(6, 2, principal_cone(2))
