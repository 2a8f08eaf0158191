import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from siegelkit import exact
from siegelkit.symplectic import (
    SymplecticForm,
    SymplecticMatrix,
    congruence_membership,
    gl_embedding,
    is_symplectic,
    j_matrix,
    pairing,
    random_congruence_element,
    random_symplectic,
    translation,
)


def basis_vector(i, n):
    return [1 if j == i else 0 for j in range(n)]


def test_pairing_on_symplectic_basis():
    form = SymplecticForm(2)
    e = lambda i: basis_vector(i, 4)
    assert form.pairing(e(0), e(2)) == -1          # psi(e_1, e_{g+1}) = -1
    assert form.pairing(e(1), e(3)) == -1
    assert form.pairing(e(0), e(1)) == 0           # |j - i| != g
    assert form.pairing(e(2), e(0)) == 1


def test_pairing_antisymmetric_on_random_vectors():
    rng = random.Random(1)
    for _ in range(20):
        u = [rng.randint(-5, 5) for _ in range(6)]
        v = [rng.randint(-5, 5) for _ in range(6)]
        assert pairing(u, u) == 0
        assert pairing(u, v) == -pairing(v, u)


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing([1, 0], [1, 0, 0, 0])
    with pytest.raises(ValueError):
        pairing([1, 0, 0], [1, 0, 0])


def test_is_symplectic_examples():
    assert is_symplectic(exact.identity(4))
    assert is_symplectic(SymplecticForm(2).matrix)
    corrupted = [list(row) for row in exact.identity(4)]
    corrupted[2][1] = Fraction(1)                  # C block entry (g+1, 2)
    assert not is_symplectic(corrupted)
    with pytest.raises(ValueError):
        is_symplectic(exact.identity(3))


def test_is_symplectic_accepts_numpy_arrays():
    assert is_symplectic(np.eye(4, dtype=int)) is True
    block = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -1, 1]])   # diag(A, t(A)^-1)
    assert is_symplectic(block) is True
    corrupted = np.eye(4, dtype=int)
    corrupted[2, 1] = 1                            # C block entry (g+1, 2)
    assert is_symplectic(corrupted) is False


def test_constructor_rejects_non_symplectic():
    bad = [list(row) for row in exact.identity(4)]
    bad[0][1] = Fraction(1)
    with pytest.raises(ValueError):
        SymplecticMatrix(2, bad)


def test_from_blocks_refuses_blocks_of_mixed_sizes():
    identity, zero = ((1, 0), (0, 1)), ((0, 0), (0, 0))
    assert SymplecticMatrix.from_blocks(identity, zero, zero, identity).g == 2
    for blocks in ((identity, ((0,),), zero, identity),
                   (identity, zero, zero, ((1, 0), (0,))),
                   (identity, zero, ((0, 0),), identity)):
        with pytest.raises(ValueError, match="blocks must all be 2 x 2"):
            SymplecticMatrix.from_blocks(*blocks)


def test_congruence_membership():
    ident = SymplecticMatrix(2, exact.identity(4))
    for n in (1, 2, 3, 5, 12):
        assert congruence_membership(ident, n)
    n = 3
    b = ((2, 1), (1, -1))
    t = translation(exact.scalar_mul(n, b))
    assert congruence_membership(t, n)
    assert not congruence_membership(j_matrix(2), 2)
    with pytest.raises(ValueError):
        congruence_membership(ident, 0)


def test_congruence_membership_needs_integral():
    half = translation(((Fraction(1, 2), 0), (0, 0)))
    with pytest.raises(ValueError):
        congruence_membership(half, 2)


def test_group_closure_and_determinant():
    rng = random.Random(7)
    for _ in range(50):
        m = random_symplectic(2, rng)
        n = random_symplectic(2, rng)
        assert is_symplectic((m @ n).entries)
        assert is_symplectic(m.inverse().entries)
        assert (m @ m.inverse()).entries == exact.identity(4)
        assert m.det() == 1


def test_pairing_invariance():
    rng = random.Random(11)
    for _ in range(20):
        m = random_symplectic(2, rng)
        u = [rng.randint(-4, 4) for _ in range(4)]
        v = [rng.randint(-4, 4) for _ in range(4)]
        mu = exact.mat_vec(m.entries, u)
        mv = exact.mat_vec(m.entries, v)
        assert pairing(mu, mv) == pairing(u, v)


def test_normality_of_congruence_subgroup():
    rng = random.Random(13)
    n = 4
    for _ in range(10):
        m = random_congruence_element(2, n, rng)
        assert congruence_membership(m, n)
        gamma = random_symplectic(2, rng)
        conj = gamma @ m @ gamma.inverse()
        assert congruence_membership(conj, n)


def test_generators_are_symplectic():
    assert is_symplectic(j_matrix(3).entries)
    assert is_symplectic(translation(((1, 2), (2, -3))).entries)
    assert is_symplectic(gl_embedding(((1, 5), (0, 1))).entries)
    with pytest.raises(ValueError):
        translation(((0, 1), (2, 0)))              # not symmetric


@st.composite
def _square(draw, g, entries):
    return tuple(tuple(draw(entries) for _ in range(g)) for _ in range(g))


_INTS = st.integers(-5, 5)
_FRACTIONS = st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=30, deadline=None)
@given(g=st.integers(1, 3), data=st.data())
def test_generators_satisfy_the_symplectic_identity(g, data):
    assert is_symplectic(j_matrix(g).entries)
    for entries in (_INTS, _FRACTIONS):
        b = data.draw(_square(g, entries))
        b = tuple(tuple(b[min(i, j)][max(i, j)] for j in range(g)) for i in range(g))
        assert is_symplectic(translation(b).entries)
    # unit upper times unit lower triangular, with a sign: unimodular
    upper, lower = data.draw(_square(g, _INTS)), data.draw(_square(g, _INTS))
    upper = tuple(tuple(x if j > i else int(i == j) for j, x in enumerate(row)) for i, row in enumerate(upper))
    lower = tuple(tuple(x if j < i else int(i == j) for j, x in enumerate(row)) for i, row in enumerate(lower))
    unimodular = exact.scalar_mul(data.draw(st.sampled_from([1, -1])), exact.mat_mul(upper, lower))
    invertible = data.draw(_square(g, _INTS))
    assume(exact.det(invertible) not in (0, 1, -1))
    rational = data.draw(_square(g, _FRACTIONS))
    assume(exact.det(rational) != 0)
    for u in (unimodular, invertible, rational):
        m = gl_embedding(u)
        assert is_symplectic(m.entries) and m.blocks[3] == exact.to_exact(u)


@pytest.mark.parametrize("make", [
    lambda: j_matrix(0),
    lambda: translation(((0, 1), (2, 0))),
    lambda: translation(((1, 2), (2, 3, 4))),
    lambda: translation(()),
    lambda: gl_embedding(()),
    lambda: gl_embedding(((1, 2), (2, 4))),
    lambda: gl_embedding(((1, 0, 0), (0, 1, 0))),
    lambda: gl_embedding(((1, 0), (0,))),
], ids=["j-g0", "b-asymmetric", "b-ragged", "b-empty", "u-empty", "u-singular", "u-not-square",
        "u-ragged"])
def test_generators_refuse_bad_outside_data(make):
    with pytest.raises(ValueError):
        make()


def _word_digest(make, seeds=range(100)):
    digest = hashlib.sha256()
    for g in (1, 2, 3):
        for seed in seeds:
            digest.update(json.dumps(make(g, random.Random(seed)).to_json()).encode())
    return digest.hexdigest()


def test_random_words_are_pinned():
    # recorded when every generator still went through the checking constructor
    assert _word_digest(lambda g, rng: random_symplectic(g, rng)) \
        == "9d2058b2a7ab8d065610450b649e89dd2775160abb95a149d7c6493fc0f92d7c"
    assert _word_digest(lambda g, rng: random_congruence_element(g, 2, rng)) \
        == "9b3976493810d8443667cbd33d15aa2b1ebd9c31ff2141e73f1a1bc33f4fbd2c"


def test_json_round_trip_with_rationals():
    m = gl_embedding(((1, 1), (0, 1)))
    half = SymplecticMatrix(1, ((Fraction(1, 2), 0), (0, 2)))
    for mat in (m, half):
        again = SymplecticMatrix.from_json(mat.to_json())
        assert again.entries == mat.entries
