"""The integer-first exact layer against a pure-Fraction reference.

Entries are ints where integral and Fractions only where a denominator
appears; these tests pin that representation, check it changes no exact
output, and check that no exact path falls back to floating point.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from siegelkit import exact, symplectic
from siegelkit.symplectic import (
    SymplecticMatrix, gl_embedding, j_matrix, random_symplectic, translation,
)
from siegelkit.toroidal import ConeSigma, dual_monoid_generators, principal_cone


def _exact_types(rows):
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for row in rows for x in row)


# --- a pure-Fraction reference, independent of the exact module -------------


def _ref_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _ref_det(a):
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = Fraction(-1) ** inversions
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _ref_inverse(a):
    n = len(a)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _ref_blocks(a, b, c, d):
    g = len(a)
    return ([[Fraction(x) for x in a[i]] + [Fraction(x) for x in b[i]] for i in range(g)]
            + [[Fraction(x) for x in c[i]] + [Fraction(x) for x in d[i]] for i in range(g)])


def _ref_word(g, rng, word_length, bound):
    """random_symplectic's word, rebuilt generator by generator in Fractions."""
    eye = [[Fraction(int(i == j)) for j in range(g)] for i in range(g)]
    zero = [[Fraction(0)] * g for _ in range(g)]
    m = [[Fraction(int(i == j)) for j in range(2 * g)] for i in range(2 * g)]
    for _ in range(rng.randint(1, word_length)):
        kind = rng.randrange(3)
        if kind == 0:
            gen = _ref_blocks(zero, [[-x for x in row] for row in eye], eye, zero)
        elif kind == 1:
            gen = _ref_blocks(eye, symplectic._random_symmetric(g, rng, bound), zero, eye)
        else:
            u = symplectic._random_gl(g, rng)
            a = [list(col) for col in zip(*_ref_inverse(u))]
            gen = _ref_blocks(a, zero, zero, u)
        m = _ref_mul(m, gen)
    return m


def test_random_words_match_fraction_reference():
    for g in (1, 2, 3):
        rng, ref_rng = random.Random(100 + g), random.Random(100 + g)
        for _ in range(40):
            m = random_symplectic(g, rng, word_length=6, bound=2)
            ref = _ref_word(g, ref_rng, 6, 2)
            assert m.to_json() == {"g": g, "entries": exact.to_json_entries(ref)}
            assert m.det() == _ref_det(ref) == 1
            assert all(type(x) is int for row in m.entries for x in row)
            inv = m.inverse()
            assert inv.entries == tuple(map(tuple, _ref_inverse(ref)))
            assert all(type(x) is int for row in inv.entries for x in row)


def test_det_and_inverse_match_reference_on_rational_matrices():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = [[rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-6, 6), rng.randint(1, 5))])
              for _ in range(n)] for _ in range(n)]
        d = exact.det(a)
        assert d == _ref_det(a)
        assert type(d) is int or d.denominator != 1
        if d == 0:
            with pytest.raises(ValueError):
                exact.inverse(a)
            continue
        inv = exact.inverse(a)
        assert inv == tuple(map(tuple, _ref_inverse(a)))
        assert _exact_types(inv)


def test_integer_input_stays_integer():
    a = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
    assert exact.det(a) == 4 and type(exact.det(a)) is int
    assert exact.inverse(((2, 1), (1, 1))) == ((1, -1), (-1, 2))
    assert _exact_types(exact.inverse(a))
    mixed = exact.to_exact(((Fraction(4, 2), 0.5), (True, "3/6")))
    assert mixed == ((2, Fraction(1, 2)), (1, Fraction(1, 2))) and _exact_types(mixed)
    assert _exact_types(exact.identity(3) + exact.zeros(2, 3))
    parsed = exact.from_json_entries([[1, "4/2"], ["1/3", 0]])
    assert parsed == ((1, 2), (Fraction(1, 3), 0)) and _exact_types(parsed)


def test_rational_products_normalize_to_int():
    half = translation(((Fraction(1, 2), 0), (0, 0)))
    assert (half @ half).entries == translation(((1, 0), (0, 0))).entries
    assert _exact_types((half @ half).entries)
    assert (half @ half.inverse()).entries == exact.identity(4)
    assert _exact_types((half @ half.inverse()).entries)


def test_symplecticity_checked_at_construction_only(monkeypatch):
    calls = []
    check = symplectic.is_symplectic
    monkeypatch.setattr(symplectic, "is_symplectic", lambda m: calls.append(1) or check(m))
    # generators are symplectic by their block form: only B and U are checked
    gens = [j_matrix(2), translation(((1, 2), (2, 0))), gl_embedding(((1, 1), (0, 1))),
            gl_embedding(((2, 0), (0, 1)))]
    words = [symplectic.random_symplectic(2, random.Random(s)) for s in range(5)]
    words += [symplectic.random_congruence_element(2, 2, random.Random(s)) for s in range(5)]
    m = gens[0] @ gens[1] @ gens[2]
    m.inverse()
    assert calls == []
    # matrices entering from outside are checked once each
    for make in (lambda: SymplecticMatrix(2, exact.identity(4)),
                 lambda: SymplecticMatrix.from_blocks(*gens[1].blocks),
                 lambda: SymplecticMatrix.from_json(words[0].to_json())):
        before = len(calls)
        make()
        assert len(calls) == before + 1
    bad = ((1, 1), (1, 1))
    for make in (lambda: SymplecticMatrix(1, bad),
                 lambda: SymplecticMatrix.from_blocks(((1,),), ((1,),), ((1,),), ((1,),)),
                 lambda: SymplecticMatrix.from_json({"g": 1, "entries": [list(r) for r in bad]})):
        with pytest.raises(ValueError):
            make()


# --- toroidal quotients stay exact --------------------------------------------


def test_dual_monoid_generators_are_exact():
    cone = principal_cone(2)
    for level in (1, 2, 3, 7):
        gens = dual_monoid_generators(cone, level)
        assert _exact_types(gens)
        for a, gen in enumerate(gens):
            for b, ray in enumerate(cone.rays):
                assert sum(x * y for x, y in zip(gen, ray)) * level == (a == b)


def test_cone_contains_is_exact_on_large_boundary_points():
    cone = principal_cone(2)
    r1, r2, r3 = cone.rays
    big = 2 ** 60
    on_facet = tuple(big * x + y for x, y in zip(r1, r2))
    inside = tuple(x + z for x, z in zip(on_facet, r3))
    assert cone.contains(on_facet) and not cone.contains(on_facet, strict=True)
    assert cone.contains(inside, strict=True)
    outside = tuple(x - z for x, z in zip(on_facet, r3))
    assert not cone.contains(outside)


def test_non_top_cone_rank_is_exact():
    r1 = (3, 1, 0, 2 ** 55 + 1)
    r2 = (1, 0, 1, 2 ** 55)
    dependent = tuple(x + y for x, y in zip(r1, r2))
    with pytest.raises(ValueError):
        ConeSigma((r1, r2, dependent), 4)
    independent = dependent[:3] + (dependent[3] + 1,)
    assert len(ConeSigma((r1, r2, independent), 4).rays) == 3
