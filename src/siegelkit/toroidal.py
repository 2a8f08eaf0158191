"""Cone and monoid combinatorics of toroidal charts at the standard cusp.

Everything here is exact integer/rational arithmetic, with ints where a value
is integral and Fractions only for real quotients; there are no floating
tolerances.  Only smooth (regular) simplicial cones are supported: general
Hilbert-basis computation is declined with an explicit error, mirroring the
standing regularity hypothesis on the polyhedral decompositions.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, gcd

from . import exact


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(int(x)))
    return g == 1


@dataclass(frozen=True)
class ConeSigma:
    """A simplicial rational cone given by primitive integer rays."""

    rays: tuple
    dimension: int

    def __post_init__(self):
        rays = tuple(tuple(int(x) for x in ray) for ray in self.rays)
        object.__setattr__(self, "rays", rays)
        if any(len(r) != self.dimension for r in rays):
            raise ValueError("rays must live in the ambient dimension")
        if any(not _primitive(r) for r in rays):
            raise ValueError("rays must be primitive")
        # linear independence of the rays <=> simplicial & strongly convex: a
        # square R needs det R != 0, other rows R an invertible Gram matrix R t(R)
        mat = rays if len(rays) == self.dimension else exact.mat_mul(rays, exact.transpose(rays))
        if len(rays) > 1 and exact.det(mat) == 0:
            raise ValueError("rays must be linearly independent (simplicial cones only)")

    def ray_set(self):
        return frozenset(self.rays)

    def is_top(self):
        return len(self.rays) == self.dimension

    def is_smooth(self):
        """Rays form a lattice basis (determinant +-1)."""
        return self.is_top() and abs(exact.det(self.rays)) == 1

    @cached_property
    def dual_basis(self):
        """Rows pairing to 1 with their own ray and 0 with the others: inverse of t(rays), top cones only."""
        return exact.inverse(exact.transpose(self.rays))

    def contains(self, point, strict=False):
        """Exact membership via the ray coordinates of the point."""
        if not self.is_top():
            raise ValueError("membership test implemented for top cones")
        coords = exact.mat_vec(self.dual_basis, tuple(exact.entry(x) for x in point))
        if strict:
            return all(c > 0 for c in coords)
        return all(c >= 0 for c in coords)

    def across_facet(self, other) -> bool:
        """Face-to-face test: the new ray of other, a top cone sharing all rays of self but one,
        has a strictly negative coordinate on the ray of self it replaces."""
        old = [i for i, ray in enumerate(self.rays) if ray not in other.rays]
        new = [ray for ray in other.rays if ray not in self.rays]
        if not (self.is_top() and other.is_top()) or len(old) != 1 or len(new) != 1:
            raise ValueError("across_facet needs two top cones sharing all rays but one")
        return exact.mat_vec(self.dual_basis, new[0])[old[0]] < 0


# --- the degree-2 principal cone fixture --------------------------------------


def gl2_image(u, cone: ConeSigma) -> ConeSigma:
    """Image of a cone under S -> U S t(U), U in GL(2, Z), on the coordinates (a, b, c) of
    S = [[a, b], [b, c]]."""
    (p, q), (r, s) = exact.to_exact(u)
    if not all(type(x) is int for x in (p, q, r, s)) or abs(p * s - q * r) != 1:
        raise ValueError("U must be an integral 2 x 2 matrix with determinant +-1")
    rays = tuple((a * p * p + 2 * b * p * q + c * q * q,
                  a * p * r + b * (p * s + q * r) + c * q * s,
                  a * r * r + 2 * b * r * s + c * s * s) for a, b, c in cone.rays)
    return ConeSigma(rays, cone.dimension)


def principal_cone(g=2) -> ConeSigma:
    """The cone spanned by the rank-one forms x^2, y^2, (x - y)^2."""
    if g != 2:
        raise ValueError("the principal cone fixture is implemented for g = 2")
    return ConeSigma(((1, 0, 0), (0, 0, 1), (1, -1, 1)), 3)


@dataclass(frozen=True)
class PrincipalConeFixture:
    cone: ConeSigma
    face_counts: dict
    neighbors: tuple      # (U, image cone) pairs sharing exactly one facet
    locally_admissible: bool


def principal_cone_fixture(g=2) -> PrincipalConeFixture:
    """The degree-2 principal cone, its faces, and adjacent GL(2, Z) images.

    Searches short words in elementary GL(2, Z) generators for images sharing
    exactly one facet with the cone, then checks local admissibility exactly:
    each image lies across the facet it shares (`ConeSigma.across_facet`).
    """
    sigma = principal_cone(g)
    gens = [((1, 1), (0, 1)), ((1, -1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 1))]
    seen = {}
    for w1, w2 in product([None] + gens, gens):
        u = w2 if w1 is None else exact.mat_mul(w1, w2)
        image = gl2_image(u, sigma)
        if len(image.ray_set() & sigma.ray_set()) == 2:
            seen.setdefault(image.ray_set(), (u, image))
    neighbors = tuple(seen.values())
    admissible = all(sigma.across_facet(image) for _, image in neighbors)
    # a simplicial cone's faces of dimension d are its d-subsets of rays
    face_counts = {d: comb(len(sigma.rays), d) for d in range(len(sigma.rays) + 1)}
    return PrincipalConeFixture(sigma, face_counts, neighbors, admissible)


# --- dual monoids and level-change chart maps ---------------------------------


def dual_monoid_generators(cone: ConeSigma, level: int):
    """Free generators delta_a / level of the dual monoid of a smooth top cone."""
    if not cone.is_top() or not cone.is_smooth():
        raise NotImplementedError(
            "dual monoid generators need a smooth top cone; Hilbert bases are not implemented"
        )
    if level < 1:
        raise ValueError("level must be positive")
    return [tuple(exact.quotient(x, level) for x in row) for row in cone.dual_basis]


@dataclass(frozen=True)
class MonomialChartMap:
    """Inclusion of level-m chart coordinates into the level-n chart, m | n.

    Row a of the exponents writes the target coordinate (the character of
    delta_a / m) as a monomial in the source coordinates (the characters of
    the delta_b / n).
    """

    source_level: int
    target_level: int
    exponents: tuple

    def __post_init__(self):
        if self.target_level < 1 or self.source_level % self.target_level:
            raise ValueError("target level must divide the source level")

    @property
    def scaling(self):
        return self.source_level // self.target_level

    def compose(self, other):
        """self after other: pullback exponents multiply."""
        if self.target_level != other.source_level:
            raise ValueError("levels do not chain")
        exps = exact.mat_mul(exact.to_exact(self.exponents), exact.to_exact(other.exponents))
        return MonomialChartMap(
            self.source_level, other.target_level,
            tuple(tuple(int(x) for x in row) for row in exps),
        )


def monomial_map(n: int, m: int, cone: ConeSigma) -> MonomialChartMap:
    """The chart map of levels m | n over a smooth top cone.

    The exponents E solve G_m = E G_n exactly, where the rows of G_k are the
    level-k dual monoid generators.
    """
    if m < 1 or n % m:
        raise ValueError("m must divide n")
    exps = exact.mat_mul(dual_monoid_generators(cone, m), exact.inverse(dual_monoid_generators(cone, n)))
    return MonomialChartMap(n, m, exact.to_exact(exps))


def verify_divisor_pullback(n: int, m: int, cone: ConeSigma):
    """Pullback multiplicity of each coordinate hyperplane divisor, per ray.

    For the level-change chart map each target coordinate divisor pulls back
    with the exponent of the corresponding monomial, read off the derived
    exponent map; the table must be constant n/m.
    """
    chart = monomial_map(n, m, cone)
    table = tuple(chart.exponents[i][i] for i in range(len(chart.exponents)))
    if any(chart.exponents[i][j] for i in range(len(table)) for j in range(len(table)) if i != j):
        raise AssertionError("chart exponent map must be diagonal over a smooth cone")
    if any(t != chart.scaling for t in table):
        raise AssertionError("pullback multiplicities must all equal n/m")
    return table
