import cmath
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from siegelkit import exact, thetaforms
from siegelkit.symplectic import gl_embedding, j_matrix, translation
from siegelkit.siegelspace import SiegelPoint, cocycle, moebius_act, random_siegel_point
from siegelkit.fourier import FourierExpansion, HalfIntegralMatrix
from siegelkit.thetaforms import (
    LatticeGram,
    ThetaCharacteristic,
    TruncationError,
    TruncationParams,
    chi10,
    chi10_normalization,
    chi18,
    even_characteristics,
    lattice_theta_coefficients,
    named_lattice,
    schottky_chi8_coefficients,
    short_vectors,
    theta_constant,
    theta_constant_with_tail,
    theta_tail_estimate,
    vanishing_order_fit,
)


def test_even_characteristic_counts():
    for g, count in ((1, 3), (2, 10), (3, 36)):
        chars = even_characteristics(g)
        assert len(chars) == count == 2 ** (g - 1) * (2 ** g + 1)
        assert all(c.is_even for c in chars)


def test_characteristic_validation():
    with pytest.raises(ValueError):
        ThetaCharacteristic(2, (0, 0.25), (0, 0))
    odd = ThetaCharacteristic.from_doubled((1,), (1,))
    assert odd.parity == -1 and not odd.is_even


def test_theta_value_at_i():
    tau = SiegelPoint(1, np.array([[1j]]))
    char = ThetaCharacteristic.from_doubled((0,), (0,))
    val = theta_constant(char, tau, TruncationParams(radius=20, target=1e-9))
    assert val.real == pytest.approx(1.0864348112133080, abs=1e-12)
    assert abs(val.imag) <= 1e-15


def test_odd_characteristics_vanish():
    tau = SiegelPoint(1, np.array([[0.3 + 0.8j]]))
    odd = ThetaCharacteristic.from_doubled((1,), (1,))
    assert abs(theta_constant(odd, tau, TruncationParams(radius=10, target=1e-4))) == 0
    tau2 = SiegelPoint(2, np.array([[1j, 0.2], [0.2, 1.5j]]))
    for bits1, bits2 in (((1, 0), (1, 0)), ((1, 1), (1, 0)), ((0, 1), (1, 1))):
        char = ThetaCharacteristic.from_doubled(bits1, bits2)
        if char.is_even:
            continue
        assert abs(theta_constant(char, tau2)) == 0


def test_theta_periodicity():
    trunc = TruncationParams(radius=14, target=1e-10)
    tau = SiegelPoint(1, np.array([[0.2 + 0.9j]]))
    plain = ThetaCharacteristic.from_doubled((0,), (1,))
    v1 = theta_constant(plain, tau, trunc)
    v2 = theta_constant(plain, SiegelPoint(1, tau.tau + 2), trunc)
    assert abs(v2 - v1) <= 1e-10 * abs(v1)

    # half-integral eps1 picks up the fourth root of unity i^(t(s) B s) with
    # s = 2 eps1 under tau -> tau + 2B; the unconditional period is tau + 8B
    half = ThetaCharacteristic.from_doubled((1,), (0,))
    w1 = theta_constant(half, tau, trunc)
    w2 = theta_constant(half, SiegelPoint(1, tau.tau + 2), trunc)
    assert abs(w2 - 1j * w1) <= 1e-10 * abs(w1)
    w8 = theta_constant(half, SiegelPoint(1, tau.tau + 8), trunc)
    assert abs(w8 - w1) <= 1e-10 * abs(w1)

    tau2 = SiegelPoint(2, np.array([[1j, 0.3], [0.3, 1.2j]]))
    b = np.array([[1, 1], [1, 2]])
    for char in even_characteristics(2):
        s = np.array(char.doubled()[0])
        phase = 1j ** int(s @ b @ s)
        a = theta_constant(char, tau2)
        moved = theta_constant(char, SiegelPoint(2, tau2.tau + 2 * b))
        assert abs(moved - phase * a) <= 1e-10 * max(1e-3, abs(a))


THETA_BOX_POINTS = {
    1: np.array([[0.2 + 0.9j]]),
    2: np.array([[0.1 + 1j, 0.3 + 0.2j], [0.3 + 0.2j, -0.2 + 1.2j]]),
    3: np.array([[0.1 + 1.1j, 0.3 + 0.2j, -0.1], [0.3 + 0.2j, 1.3j, 0.2 - 0.1j],
                 [-0.1, 0.2 - 0.1j, -0.3 + 1.4j]]),
}


def _stdlib_theta(char, tau, trunc):
    """(theta[char](tau) over the full box, with one cmath.exp per term and the real and imaginary
    parts summed by math.fsum, and a first-order bound on its distance from the kernel's value).

    With u = 2^-53 and S = sum |d_i| |tau_ij| |d_j| for a term: both sides compute t(d) tau d within
    about 4.3 g^2 u S, the product with pi i/4 adds u |t(d) tau d| <= u S on each side, and each exp is
    within 4 u of the rounded argument's, so a term moves by at most u (8 + 10 g^2 S) relative.  The
    kernel sums n = ceil(N/2) half-box rows of weight at most 2, within 2 n u sum |term|, and fsum
    rounds the exact sum once, within 2 u |theta| over both parts."""
    g, r, t = char.g, trunc.radius, tau.tau.tolist()
    axes = [range(-2 * r - b, 2 * r + b + 1, 2) for b in char.s1]
    reals, imags, moved, total, count = [], [], 0.0, 0.0, 0
    for d in product(*axes):
        q = sum(d[i] * t[i][j] * d[j] for i in range(g) for j in range(g))
        s = sum(abs(d[i]) * abs(t[i][j]) * abs(d[j]) for i in range(g) for j in range(g))
        term = cmath.exp(1j * math.pi / 4 * q) * (1, 1j, -1, -1j)[sum(a * b for a, b in zip(d, char.s2)) % 4]
        reals.append(term.real)
        imags.append(term.imag)
        moved += abs(term) * (8 + 10 * g * g * s)
        total += abs(term)
        count += 1
    value = complex(math.fsum(reals), math.fsum(imags))
    return value, 2.0 ** -53 * (moved + 2 * ((count + 1) // 2) * total + 2 * abs(value))


def _half_box_layout(g, r):
    """The layout rebuilt from the full box: each s1's first ceil(N/2) rows, their monomials and
    weights i^(t(d) s2) + i^(-t(d) s2), with the centre d = 0 of s1 = 0 once."""
    monomials, weights = [], []
    for s1 in product((0, 1), repeat=g):
        axes = [np.arange(-2 * r - b, 2 * r + b + 1, 2) for b in s1]
        d = np.stack([grid.ravel() for grid in np.meshgrid(*axes, indexing="ij")], axis=1)
        assert np.array_equal(d[::-1], -d)      # row k and row N - 1 - k are d and -d
        d = d[:(len(d) + 1) // 2]
        monomials.append(np.stack([d[:, i] * d[:, j] * (1 if i == j else 2)
                                   for i in range(g) for j in range(i, g)], axis=1))
        powers = np.array(list(product((0, 1), repeat=g))) @ d.T
        w = (np.array([1, 1j, -1, -1j])[powers % 4] + np.array([1, 1j, -1, -1j])[-powers % 4]).real
        if not any(s1):
            w[:, -1] = 1
        weights.append(w)
    return np.concatenate(monomials), weights


@pytest.mark.parametrize("g, radius", [(1, 8), (2, 8), (2, 12), (3, 5), (1, 70)])
def test_cached_theta_box_is_bit_identical_to_the_inline_box(g, radius):
    tau = SiegelPoint(g, THETA_BOX_POINTS[g])
    trunc = TruncationParams(radius=radius, target=1e-6)
    for char in even_characteristics(g):
        value, tail = theta_constant_with_tail(char, tau, trunc)
        reference, bound = _stdlib_theta(char, tau, trunc)
        assert abs(value - reference) <= bound and bound < 1e-12
        assert tail == theta_tail_estimate(tau, trunc)
    # the cached half boxes are the inline box's, as monomials in int16 up to radius 63 and int32
    # beyond, with int8 weights in {2, 0, -2} and 1 at the centre
    monomials, weights = thetaforms._theta_layout(g, radius)
    inline_monomials, inline_weights = _half_box_layout(g, radius)
    assert monomials.dtype == (np.int16 if radius <= 63 else np.int32)
    assert np.array_equal(monomials, inline_monomials)
    assert len(monomials) == ((4 * radius + 3) ** g + 1) // 2
    assert len(weights) == len(inline_weights) == 2 ** g
    assert all(w.dtype == np.int8 and np.array_equal(w, inline) for w, inline in zip(weights, inline_weights))


def test_cached_theta_box_is_read_only():
    trunc = TruncationParams(radius=8, target=1e-6)
    theta_constant(even_characteristics(2)[3], SiegelPoint(2, THETA_BOX_POINTS[2]), trunc)
    monomials, weights = thetaforms._theta_layout(2, 8)
    values, _ = thetaforms._theta_values(2, trunc, THETA_BOX_POINTS[2].tobytes())
    for array, index in ((monomials, (0, 0)), (weights[1], (0, 0)), (values, (0,) * 4)):
        with pytest.raises(ValueError):
            array[index] = 0


def test_characteristics_sharing_s1_share_one_box_of_terms():
    # every characteristic at a point and truncation, odd ones included, is read off one pass:
    # one tail, one exp over the rows of all 2^g half boxes, one real product per s1
    tau = SiegelPoint(3, THETA_BOX_POINTS[3] + 0.01)
    trunc = TruncationParams(radius=5, target=1e-6)
    chars = [ThetaCharacteristic.from_doubled(bits[:3], bits[3:]) for bits in product((0, 1), repeat=6)]
    info = thetaforms._theta_values.cache_info()
    with mock.patch.object(thetaforms, "theta_tail_estimate", wraps=theta_tail_estimate) as tail_estimate, \
            mock.patch.object(np, "exp", wraps=np.exp) as exp, mock.patch.object(np, "dot", wraps=np.dot) as dot:
        values = [theta_constant_with_tail(char, tau, trunc) for char in chars]
    assert tail_estimate.call_count == 1
    assert sorted(np.size(call.args[0]) for call in exp.call_args_list) == [80, ((4 * 5 + 3) ** 3 + 1) // 2]
    assert dot.call_count == 1 + 8
    after = thetaforms._theta_values.cache_info()
    assert (after.misses, after.hits) == (info.misses + 1, info.hits + 63)
    assert all(tail == values[0][1] for _, tail in values)
    assert [value == 0 for value, _ in values] == [not char.is_even for char in chars]


def test_every_call_past_its_target_raises():
    tau = SiegelPoint(2, THETA_BOX_POINTS[2])
    char = even_characteristics(2)[0]
    loose, strict = TruncationParams(radius=2, target=1.0), TruncationParams(radius=2, target=1e-12)
    theta_constant(char, tau, loose)
    entries = thetaforms._theta_values.cache_info().currsize
    for _ in range(2):       # nothing is cached by a raising call, so the second raises too
        with pytest.raises(TruncationError):
            theta_constant(char, tau, strict)
    assert thetaforms._theta_values.cache_info().currsize == entries
    # the values cached under the loose target do not serve the strict one
    reference, bound = _stdlib_theta(char, tau, loose)
    assert abs(theta_constant(char, tau, loose) - reference) <= bound


def test_a_point_one_ulp_away_gets_its_own_terms():
    trunc = TruncationParams(radius=8, target=1e-6)
    near = THETA_BOX_POINTS[2].copy()
    near[0, 0] = complex(near[0, 0].real, np.nextafter(near[0, 0].imag, 2.0))
    tau, moved = SiegelPoint(2, THETA_BOX_POINTS[2]), SiegelPoint(2, near)
    char = even_characteristics(2)[4]
    theta_constant(char, tau, trunc)
    misses = thetaforms._theta_values.cache_info().misses
    value, tail = theta_constant_with_tail(char, moved, trunc)
    reference, bound = _stdlib_theta(char, moved, trunc)
    assert abs(value - reference) <= bound and tail == theta_tail_estimate(moved, trunc)
    assert thetaforms._theta_values.cache_info().misses == misses + 1


def test_theta_box_guard_refuses_past_its_row_limit():
    def build(*args):
        raise AssertionError("the box guard must fire before any layout is built")

    tau = SiegelPoint.scaled_identity(3)
    char = even_characteristics(3)[0]
    with mock.patch.object(thetaforms, "_theta_layout", side_effect=build):
        with pytest.raises(ValueError, match="32072054014 rows"):
            theta_constant(char, tau, TruncationParams(radius=1000, target=1e-6))
        with pytest.raises(ValueError, match="1024192 rows"):        # radius 31 is refused ...
            theta_constant(char, tau, TruncationParams(radius=31, target=1e-6))
        with pytest.raises(AssertionError, match="box guard"):       # ... and radius 30 (930,484 rows) built
            theta_constant(char, tau, TruncationParams(radius=30, target=1e-6))
    assert ((4 * 30 + 3) ** 3 + 1) // 2 <= thetaforms.THETA_BOX_ROWS < ((4 * 31 + 3) ** 3 + 1) // 2


def test_truncation_certificate():
    tau = SiegelPoint(1, np.array([[0.6j]]))
    char = ThetaCharacteristic.from_doubled((0,), (0,))
    small, tail_small = theta_constant_with_tail(char, tau, TruncationParams(radius=6, target=1.0))
    large, _ = theta_constant_with_tail(char, tau, TruncationParams(radius=12, target=1.0))
    assert abs(large - small) < tail_small
    with pytest.raises(TruncationError):
        theta_constant(char, SiegelPoint(1, np.array([[0.5j]])),
                       TruncationParams(radius=3, target=1e-10))


def _loop_tail(tau, trunc):
    """The certified tail summed shell by shell in Python, kept as the reference."""
    lam = float(np.min(np.linalg.eigvalsh(tau.imag)))
    tail = 0.0
    for s in range(trunc.radius, trunc.radius + 80):
        shell = (2 * s + 3) ** tau.g - (2 * s + 1) ** tau.g
        tail += shell * math.exp(-math.pi * lam * s * s)
    return tail


@pytest.mark.parametrize("g", [1, 2, 3])
def test_tail_estimate_matches_the_shell_loop(g):
    rng = np.random.default_rng(40 + g)
    points = [SiegelPoint.scaled_identity(g, 0.05), SiegelPoint.scaled_identity(g)]
    points += [random_siegel_point(g, rng, s) for s in (0.3, 1, 3)]
    for tau in points:
        for radius in range(1, 13):
            trunc = TruncationParams(radius=radius, target=1.0)
            expected = _loop_tail(tau, trunc)
            assert abs(theta_tail_estimate(tau, trunc) - expected) <= 1e-15 * expected


@pytest.mark.parametrize("radius", [2.5, 3.0, True, False, "4", None])
def test_truncation_radius_must_be_an_integer(radius):
    # np.arange accepts a float radius and bool is an int: both would slip past the tail
    with pytest.raises(ValueError, match="radius"):
        TruncationParams(radius=radius)


def test_truncation_radius_accepts_numpy_integers():
    assert TruncationParams(radius=np.int64(3)).radius == 3


@pytest.mark.parametrize("target", [0.0, -1e-10, math.nan, math.inf])
def test_truncation_target_must_be_finite_and_positive(target):
    # tail > nan is never true, so a NaN target would switch the certified-tail guard off
    with pytest.raises(ValueError, match="target"):
        TruncationParams(radius=1, target=target)


def test_lattice_fixtures():
    e8 = named_lattice("e8")
    e8e8 = named_lattice("e8e8")
    e16 = named_lattice("e16")
    for lat in (e8, e8e8, e16):
        assert lat.is_even_unimodular()
    assert (e8.rank, e8e8.rank, e16.rank) == (8, 16, 16)
    # minimal vectors: 240 roots for E8; 480 for both rank-16 lattices
    assert len(short_vectors(e8, 2)) - 1 == 240
    assert len(short_vectors(e8e8, 2)) - 1 == 480
    assert len(short_vectors(e16, 2)) - 1 == 480
    with pytest.raises(ValueError):
        LatticeGram("odd", 2, ((1, 0), (0, 1)))
    with pytest.raises(ValueError):
        LatticeGram("indef", 2, ((2, 3), (3, 2)))
    # positive semidefinite but singular: not a lattice Gram matrix
    for singular in (((2, 2), (2, 2)), ((2, 0), (0, 0))):
        with pytest.raises(ValueError, match="positive definite"):
            LatticeGram("singular", 2, singular)
    # an entry that is not an integer is refused, not truncated
    with pytest.raises(ValueError, match="integer entries"):
        LatticeGram("fractional", 2, ((2, 2.9), (2.9, 6)))


def test_lattice_gram_refuses_rank_below_1():
    # short_vectors needs at least one coordinate to enumerate
    for rank in (0, -1):
        with pytest.raises(ValueError, match="rank must be at least 1"):
            LatticeGram("empty", rank, ())


def test_lattice_norm_refuses_a_vector_of_the_wrong_length():
    e8 = named_lattice("e8")
    assert e8.norm([1, 0, 0, 0, 0, 0, 0, 0]) == 2
    for x in ([1, 0, 0], [1] + [0] * 9, []):
        with pytest.raises(ValueError, match="needs 8 coordinates"):
            e8.norm(x)


# sha256 of json.dumps(lattice.gram), recorded from the per-entry loop constructions
NAMED_GRAMS = {
    "e8": "0d2b2d0d9bef94f483967281bb7214d23506ea147b63b592b955b83071d21655",
    "e8e8": "1338c6a258db6d2511853dedbcd347ddf35bf41a77802082d935f0e36fe02bc9",
    "e16": "edff69bf4c9d4ff0f0b2bc3f91921cb017aac9f0aefe423ab1b4ae4aad7b80d8",
}


@pytest.mark.parametrize("name", sorted(NAMED_GRAMS))
def test_named_grams_are_pinned(name):
    gram = named_lattice(name).gram
    assert all(type(x) is int for row in gram for x in row)
    assert hashlib.sha256(json.dumps(gram).encode()).hexdigest() == NAMED_GRAMS[name]


def _fraction_ldl(gram):
    """Reference Fincke-Pohst coefficients by a Fraction LDL:
    Q(x) = sum_i q[i][i] (x_i + sum_{j>i} q[i][j] x_j)^2 on and above the diagonal."""
    r = len(gram)
    q = [[Fraction(gram[i][j]) for j in range(r)] for i in range(r)]
    for i in range(r):
        for j in range(i + 1, r):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, r):
            for l in range(k, r):
                q[k][l] = q[k][l] - q[k][i] * q[i][l]
    return q


def _assert_pivots_match_fraction_ldl(gram):
    # D_k = p_k / p_(k-1) and U_kj = row_k[j - k] / p_k, exactly
    q, prev = _fraction_ldl(gram), 1
    for k, row in enumerate(exact.symmetric_pivots(gram)):
        assert Fraction(row[0], prev) == q[k][k]
        assert [Fraction(x, row[0]) for x in row[1:]] == q[k][k + 1:]
        prev = row[0]


@pytest.mark.parametrize("name", sorted(NAMED_GRAMS))
def test_symmetric_pivots_match_fraction_ldl_on_named_lattices(name):
    gram = np.array(named_lattice(name).gram)
    for oriented in (gram, gram[::-1, ::-1]):      # _enumerate eliminates the reversed Gram
        _assert_pivots_match_fraction_ldl(oriented.tolist())


def _cartan_a(n):
    return (2 * np.eye(n, dtype=np.int64) - np.eye(n, k=1, dtype=np.int64) - np.eye(n, k=-1, dtype=np.int64)).tolist()


@st.composite
def even_pd_grams(draw):
    # t(X) A X for the A_n Cartan matrix A and an invertible integer X: even and definite
    rank = draw(st.integers(1, 6))
    x = draw(st.lists(st.lists(st.integers(-2, 2), min_size=rank, max_size=rank),
                      min_size=rank, max_size=rank))
    assume(exact.det(x) != 0)
    return (np.array(x).T @ np.array(_cartan_a(rank)) @ np.array(x)).tolist()


@settings(max_examples=300, deadline=None)
@given(gram=even_pd_grams())
def test_symmetric_pivots_match_fraction_ldl_on_even_grams(gram):
    LatticeGram("random", len(gram), gram)
    _assert_pivots_match_fraction_ldl(gram)


@st.composite
def even_grams(draw):
    rank = draw(st.integers(2, 4))
    # G[:k, k:] = 0 for a drawn k < rank, an orthogonal sum (k = rank draws no zero block)
    k = draw(st.integers(1, rank))
    gram = np.zeros((rank, rank), dtype=np.int64)
    for i in range(rank):
        gram[i, i] = 2 * draw(st.integers(1, 5))
        for j in range(i):
            gram[i, j] = gram[j, i] = 0 if j < k <= i else draw(st.integers(-3, 3))
    assume(np.linalg.eigvalsh(gram)[0] > 0.2)
    return gram


@settings(max_examples=150, deadline=None)
@given(gram=even_grams(), bound=st.integers(0, 8), block=st.sampled_from([1, 7]))
def test_short_vectors_match_box_enumeration(gram, bound, block):
    lattice = LatticeGram("random", len(gram), gram.tolist())
    # |x_i| <= sqrt(bound * (G^-1)_ii) on the ellipsoid; the box is in lex order
    half = np.floor(np.sqrt(bound * np.diag(np.linalg.inv(gram))) + 1).astype(int)
    axes = [np.arange(-h, h + 1) for h in half]
    box = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    norms = np.array([lattice.norm(x) for x in box.tolist()])
    expected = box[norms <= bound]
    got = short_vectors(lattice, bound)
    # the narrowest signed type that holds every coordinate and its negative
    assert got.dtype == np.min_scalar_type(-int(np.abs(got).max(initial=0)) - 1) and not got.flags.writeable
    assert got.shape == expected.shape and np.array_equal(got, expected)
    # the tree enumerates one sign: the rest is the mirror image, about 0 in the middle
    assert np.array_equal(got[::-1], -got) and not got[len(got) // 2].any()
    cached, got_norms = thetaforms._enumerate(lattice, bound)
    # the norms in the narrowest signed type that holds -bound - 1
    assert np.array_equal(cached, got) and got_norms.dtype == np.min_scalar_type(-bound - 1)
    assert not got_norms.flags.writeable
    assert got_norms.tolist() == [lattice.norm(x) for x in got.tolist()]
    # blocks split at parent boundaries leave values, order and types alone
    with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
        split, split_norms = thetaforms._enumerate.__wrapped__(lattice, bound)
    assert split.dtype == got.dtype and np.array_equal(split, expected)
    assert split_norms.dtype == got_norms.dtype and np.array_equal(split_norms, got_norms)


def _unshared_walk(lattice, bound):
    """`_enumerate` with every node at the cut its own state, so that no subtree is shared: the
    Fincke-Pohst walk of every node."""
    with mock.patch.object(thetaforms, "_states", lambda keys: (np.arange(len(keys)),) * 2):
        return thetaforms._enumerate.__wrapped__(lattice, bound)


def _assert_same_table(got, expected):
    (vecs, norms), (want, want_norms) = got, expected
    assert vecs.dtype == want.dtype and vecs.shape == want.shape and np.array_equal(vecs, want)
    assert norms.dtype == want_norms.dtype and np.array_equal(norms, want_norms)
    assert not vecs.flags.writeable and not norms.flags.writeable


# every bound up to the second, at the third's ENUM_BLOCK.  At blocks 1 and 7 a rank-16 walk at
# bound 6 takes 13 s or more, a node or a few per numpy block, so those stop at bound 4; blocks of 64
# still split E16's cut at bound 6, into 167 blocks, 166 of them sharing states (E8+E8 at blocks of
# 64 is compared by test_orthogonal_sum_matches_the_unsplit_walk_on_e8e8)
@pytest.mark.parametrize("name, bound, block", [
    ("e8", 10, 1), ("e8e8", 4, 1), ("e16", 4, 1), ("e8", 10, 7), ("e8e8", 4, 7), ("e16", 4, 7), ("e16", 6, 64),
    ("e8", 10, thetaforms.ENUM_BLOCK), ("e8e8", 6, thetaforms.ENUM_BLOCK), ("e16", 6, thetaforms.ENUM_BLOCK)])
def test_enumeration_blocks_split_at_parent_boundaries(name, bound, block):
    # against the unshared walk at the default blocks.  Split pieces that are not first start with
    # nodes whose range goes below 0 (clamping them too loses vectors), and in E16 some split pieces
    # hold only dead ends, so their next level is empty and is skipped
    lattice = named_lattice(name)
    for b in range(bound + 1):
        with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
            got = thetaforms._enumerate.__wrapped__(lattice, b)
        _assert_same_table(got, _unshared_walk(lattice, b))
    vecs, norms = got
    assert vecs.dtype == norms.dtype == np.int8
    # 240 sigma_3(n) vectors of norm 2n in E8, 480 sigma_7(n) in rank 16
    shells = {"e8": [1, 240, 2160, 6720, 17520, 30240]}.get(name, [1, 480, 61920, 1050240])
    assert np.bincount(norms)[::2].tolist() == shells[:bound // 2 + 1]


def _walked_states(lattice, bound):
    """The state rows (C_0..C_cut, room) of each block at the cut, in order, each with the number of
    distinct states walked on, and the table."""
    seen, states = [], thetaforms._states

    def counted(keys):
        reps, state = states(keys)
        seen.append((keys, len(reps)))
        return reps, state

    with mock.patch.object(thetaforms, "_states", counted):
        table = thetaforms._enumerate.__wrapped__(lattice, bound)
    return seen, table


def test_each_distinct_state_at_the_cut_is_walked_once():
    # at bound 6 the cut (level 7) is one block: E16's 8,169 nodes hold 97 states, and E8+E8's
    # 4,561 nodes (the first summand's half table) hold 4, its rooms for norms 0, 2, 4 and 6
    for name, nodes, states in (("e16", 8169, 97), ("e8e8", 4561, 4)):
        seen, table = _walked_states(named_lattice(name), 6)
        assert [(len(keys), walked) for keys, walked in seen] == [(nodes, states)]
        assert np.bincount(table[1])[::2].tolist() == [1, 480, 61920, 1050240]


def _block_diagonal(name, *blocks):
    gram = np.zeros((sum(len(b) for b in blocks),) * 2, dtype=np.int64)
    at = 0
    for block in blocks:
        gram[at:at + len(block), at:at + len(block)] = block
        at += len(block)
    return LatticeGram(name, len(gram), gram.tolist())


@pytest.mark.parametrize("block", [1, 7, 64, thetaforms.ENUM_BLOCK])
def test_orthogonal_sum_matches_the_unsplit_walk_on_e8e8(block):
    # the cut lies on the boundary of the two summands, so each state is a room alone: the centre
    # sums at the cut are 0.  At blocks 1 and 7 this stops at bound 2 (bounds 3 and 4 are compared
    # there by test_enumeration_blocks_split_at_parent_boundaries, and bound 6 takes 13-30 s); blocks
    # of 64 still split the cut of bound 6, into 92 blocks of at most 4 states each
    lattice = named_lattice("e8e8")
    for bound in range(7 if block >= 64 else 3):
        with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
            seen, got = _walked_states(lattice, bound)
        assert seen and not any(keys[:, :-1].any() for keys, _ in seen)
        _assert_same_table(got, _unshared_walk(lattice, bound))
    if block == 64:
        assert len(seen) == 92 and all(walked <= 4 < len(keys) for keys, walked in seen)


@pytest.mark.parametrize("block", [1, 7, thetaforms.ENUM_BLOCK])
def test_orthogonal_sum_of_three_summands_recurses(block):
    # the cut of this rank-6 sum (level 2) falls after (4), so prefixes of equal norm share a state
    lattice = _block_diagonal("A2+(4)+A3", _cartan_a(2), [[4]], _cartan_a(3))
    shared = False
    for bound in range(9):
        with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
            seen, got = _walked_states(lattice, bound)
        shared |= any(walked < len(keys) for keys, walked in seen)
        _assert_same_table(got, _unshared_walk(lattice, bound))
    assert shared


@pytest.mark.parametrize("block", [1, 7, thetaforms.ENUM_BLOCK])
def test_orthogonal_sum_of_summands_with_different_row_types(block):
    # (2) holds coordinates up to 128 at bound 2 * 128^2, so its rows are int16; 1024 A2 holds
    # int8 rows there (coordinates up to 4); the sum's rows take int16 and its norms int32
    bound = 2 * 128 ** 2
    line, wide_a2 = [[2]], (1024 * np.array(_cartan_a(2))).tolist()
    assert short_vectors(LatticeGram("line", 1, line), bound).dtype == np.int16
    assert short_vectors(LatticeGram("1024 A2", 2, wide_a2), bound).dtype == np.int8
    for blocks in ((line, wide_a2), (wide_a2, line)):
        lattice = _block_diagonal("line+A2", *blocks)
        with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
            got = thetaforms._enumerate.__wrapped__(lattice, bound)
        assert got[0].dtype == np.int16 and got[1].dtype == np.int32
        _assert_same_table(got, _unshared_walk(lattice, bound))
    # A2 sheared at m bounds its coordinates by Y = 2m at bound 6, so from m = 64 the walk holds them
    # in int16.  At m = 64 the largest is 127, and the shared rows are narrowed to int8 before they
    # are joined; at m = 65 it is 129, held only by prefixes whose state an earlier prefix walked
    for m, dtype in ((64, np.int8), (65, np.int16)):
        lattice = _block_diagonal("sheared A2+A2", _sheared_a2(m).gram, _cartan_a(2))
        with mock.patch.object(thetaforms, "ENUM_BLOCK", block):
            seen, got = _walked_states(lattice, 6)
        assert any(walked < len(keys) for keys, walked in seen)
        assert got[0].dtype == dtype and np.abs(got[0]).max() == 2 * m - 1
        _assert_same_table(got, _unshared_walk(lattice, 6))


def _tuple_tally(lattice, genus, trace_bound):
    """c(A) by walking every tuple of short vectors within the trace, in plain Python."""
    vecs = [tuple(x) for x in short_vectors(lattice, 2 * trace_bound).tolist()]

    def inner(x, y):
        return sum(x[i] * lattice.gram[i][j] * y[j] for i in range(lattice.rank) for j in range(lattice.rank))

    tally = {}

    def extend(chosen, budget):
        if len(chosen) == genus:
            key = tuple(inner(chosen[i], chosen[j]) for i in range(genus) for j in range(i, genus))
            tally[key] = tally.get(key, 0) + 1
            return
        for x in vecs:
            if inner(x, x) <= budget:
                extend(chosen + [x], budget - inner(x, x))

    extend([], 2 * trace_bound)
    return FourierExpansion(genus, 1, lattice.rank // 2, tally, trace_bound=2 * trace_bound)


@settings(max_examples=100, deadline=None)
@given(gram=even_grams(), genus=st.integers(1, 3), trace_bound=st.integers(1, 3),
       chunk=st.sampled_from([1, 7, thetaforms.TALLY_CHUNK]))
def test_tally_kernel_matches_tuple_enumeration(gram, genus, trace_bound, chunk):
    lattice = LatticeGram("random", len(gram), gram.tolist())
    expected = _tuple_tally(lattice, genus, trace_bound).to_json()
    with mock.patch.object(thetaforms, "TALLY_CHUNK", chunk):
        assert lattice_theta_coefficients(lattice, genus, trace_bound).to_json() == expected


# every genus-3 combo of an even lattice at trace <= 3 is (2, 2, 2), so the draws above cannot tell
# an ordering's histogram from its sorted combo's; at trace 8 A2 has the classes 2, 6, 8 and 14 and
# the line G = (2) the classes 2 and 8
@pytest.mark.parametrize("chunk", [1, 7, thetaforms.TALLY_CHUNK])
@pytest.mark.parametrize("gram", [((2, -1), (-1, 2)), ((2,),)], ids=["a2", "line"])
def test_orderings_of_distinct_classes_match_tuple_enumeration(gram, chunk):
    lattice = LatticeGram("orderings", len(gram), gram)
    expected = _tuple_tally(lattice, 3, 8)
    diagonals = {(key[0], key[3], key[5]) for key in expected.coeffs}
    assert set(permutations((2, 2, 8))) <= diagonals
    assert len(gram) == 1 or set(permutations((2, 6, 8))) <= diagonals
    with mock.patch.object(thetaforms, "TALLY_CHUNK", chunk):
        assert lattice_theta_coefficients(lattice, 3, 8).to_json() == expected.to_json()


def test_tally_runs_once_per_multiset_in_int16():
    bincount, code_types = np.bincount, []

    def counted(codes, minlength=0):
        code_types.append(codes.dtype)
        return bincount(codes, minlength=minlength)

    # the positive halves of the E8 classes of norm 2, 4, 6, 8 (240 sigma_3 shells)
    halves = {2: 120, 4: 1080, 6: 3360, 8: 8760}
    passes = 0
    for genus in (2, 3):                  # the genus-3 call tallies genus 2 for its zero rows
        for combo in combinations_with_replacement(sorted(halves), genus):
            if sum(combo) > 8:
                continue
            # a run of slot 0's class: each chunk's run slots start above its first slot-0 index, and
            # the last index has none above it
            run = [k for k in range(1, genus) if combo[k] == combo[0]]
            start = 0
            while start < halves[combo[0]] - bool(run):
                width = math.prod(halves[n] - (start + 1) * (k in run) for k, n in enumerate(combo) if k)
                start += max(1, thetaforms.TALLY_CHUNK // width)
                passes += 1
            passes += genus == 3 and bool(run)     # the tie histogram of the (1, 2) plane
    with mock.patch.object(thetaforms.np, "bincount", counted):
        lattice_theta_coefficients(named_lattice("e8"), 3, 4)
    # one pass set per ordering would take 577 passes: (4, 2, 2) alone takes 270; the full tally of each
    # sorted combo took 178, (2, 2, 4) 120 of them, against 99 over its run and 1 for its ties
    assert len(code_types) == passes == 133
    assert set(code_types) == {np.dtype(np.int16)}


def test_run_of_three_tallies_each_triple_once():
    bincount, tallied = np.bincount, []

    def counted(codes, minlength=0):
        if minlength >= 7 ** 3:           # a genus-3 pass at trace 3: radix 7, three pairs
            tallied.append(int(np.count_nonzero(codes < 7 ** 3)))
        return bincount(codes, minlength=minlength)

    with mock.patch.object(thetaforms.np, "bincount", counted):
        lattice_theta_coefficients(named_lattice("e8"), 3, 3)
    # (2, 2, 2) is the only genus-3 combo: the triples of the 120-vector positive half whose first index
    # is below the other two, sum of m^2 for m < 120, where the full tally counts 120^3 = 1,728,000
    assert sum(tallied) == sum(m * m for m in range(120)) == 568820


# the A3 root lattice (det 4, 12 roots) in an unreduced basis; a float Fincke-Pohst
# tree misses +-(3081, 218684, 1930), of exact norm 2
A3_SKEWED = ((118020312722, -1662769847, 299456), (-1662769847, 23426506, -4219), (299456, -4219, 2))


def test_short_vectors_of_a_skewed_a3_basis():
    lattice = LatticeGram("A3 skewed", 3, A3_SKEWED)
    assert lattice.determinant() == 4
    vecs = short_vectors(lattice, 2)
    assert len(vecs) == 13 and [3081, 218684, 1930] in vecs.tolist()
    assert [lattice.norm(x) for x in vecs.tolist()] == thetaforms._enumerate(lattice, 2)[1].tolist()
    assert lattice_theta_coefficients(lattice, 1, 1).coeffs == {(0,): 1, (2,): 12}
    reduced = LatticeGram("A3", 3, _cartan_a(3))
    assert lattice_theta_coefficients(lattice, 2, 2).coeffs == lattice_theta_coefficients(reduced, 2, 2).coeffs


@st.composite
def skewed_a_grams(draw):
    # t(U) A_n U for U a product of up to four elementary column operations with
    # multipliers up to 10 (entries up to 10^4); for n <= 4 every such basis is served
    n = draw(st.integers(2, 4))
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        m = draw(st.integers(-10, 10))
        for row in u:
            row[j] += m * row[i]
    return n, exact.mat_mul(exact.mat_mul(exact.transpose(u), _cartan_a(n)), u)


@settings(max_examples=150, deadline=None)
@given(case=skewed_a_grams(), bound=st.integers(0, 6))
def test_short_vector_counts_are_basis_free(case, bound):
    n, gram = case
    norms = thetaforms._enumerate(LatticeGram("skewed", n, gram), bound)[1]
    expected = thetaforms._enumerate(LatticeGram("A", n, _cartan_a(n)), bound)[1]
    assert np.bincount(norms, minlength=bound + 1).tolist() == np.bincount(expected, minlength=bound + 1).tolist()


def test_short_vectors_refuse_past_int64():
    # p_7 p_6 bound = 2000^15 * 2 for 2000 I8
    with pytest.raises(ValueError, match=r"past 2\^62"):
        short_vectors(LatticeGram("2000 I8", 8, (2000 * np.eye(8, dtype=np.int64)).tolist()), 2)
    # rank 1, G = (2a): p_0 bound = 2a bound is served below 2^62 and refused past it;
    # at bound 18a, T = 36 a^2 is past 2^53 and +-3 lie exactly on the bound
    a = 2 ** 28 - 1
    line = LatticeGram("line", 1, ((2 * a,),))
    vecs, norms = thetaforms._enumerate(line, 18 * a)
    assert vecs.ravel().tolist() == list(range(-3, 4))
    assert norms.tolist() == [2 * a * x * x for x in range(-3, 4)]
    with pytest.raises(ValueError, match=r"past 2\^62"):
        short_vectors(line, 2 ** 62 // (2 * a) + 1)
    with pytest.raises(ValueError, match="bound"):
        short_vectors(line, -1)
    # A2 sheared by y0 -> y0 + m y1 keeps the pivots 2 and 3, so only the centre sums
    # grow: served with coordinates near 2^59 at m = 2^58, refused at m = 2^61
    def sheared_a2(m):
        return LatticeGram("A2 sheared", 2, ((2 * m * m - 2 * m + 2, 2 * m - 1), (2 * m - 1, 2)))

    vecs, norms = thetaforms._enumerate(sheared_a2(2 ** 58), 6)
    assert np.bincount(norms).tolist() == [1, 0, 6, 0, 0, 0, 6]
    assert norms.tolist() == [sheared_a2(2 ** 58).norm(x) for x in vecs.tolist()]
    with pytest.raises(ValueError, match=r"past 2\^62"):
        short_vectors(sheared_a2(2 ** 61), 6)


def _line(a):
    return LatticeGram("line", 1, ((2 * a,),))


def _sheared_a2(m):
    # A2 sheared by y0 -> y0 + m y1: pivots 2 and 3, centre sums up to 4m - 2, the peak at bound 6
    return LatticeGram("A2 sheared", 2, ((2 * m * m - 2 * m + 2, 2 * m - 1), (2 * m - 1, 2)))


# (lattice, bound, working type): 2 peak + 2 is 4 bound + 2 for the line G = (2) and 8m - 2 for
# the sheared A2 at bound 6, here just below and just above 2^15 and 2^31; in the last two the
# peak 2 bound itself is just below 2^15 and 2^31, so a type chosen by the peak alone would wrap
# (t + 1)^2, which at 2^15 lets in x = +-91 of norm 16562
WORK_TYPE_CASES = [
    (_line(1), 8191, np.int16), (_line(1), 8192, np.int32),
    (_line(1), 2 ** 29 - 1, np.int32), (_line(1), 2 ** 29, np.int64),
    (_sheared_a2(4096), 6, np.int16), (_sheared_a2(4097), 6, np.int32),
    (_sheared_a2(2 ** 28), 6, np.int32), (_sheared_a2(2 ** 28 + 1), 6, np.int64),
    (_line(1), 16383, np.int32), (_line(1), 2 ** 30 - 1, np.int64),
]


@pytest.mark.parametrize("lattice, bound, work", WORK_TYPE_CASES)
def test_walk_works_in_the_narrowest_type_its_guard_allows(lattice, bound, work):
    # the working type is that of T = p_(i-1) room, the argument of the square-root seed
    with mock.patch.object(np, "sqrt", wraps=np.sqrt) as sqrt:
        vecs, norms = thetaforms._enumerate.__wrapped__(lattice, bound)
    assert {call.args[0].dtype for call in sqrt.call_args_list} == {np.dtype(work)}
    assert norms.tolist() == [lattice.norm(x) for x in vecs.tolist()]
    if lattice.rank == 1:           # every x with 2 x^2 <= bound, the top one on it at 2^k
        top = math.isqrt(bound // 2)
        assert vecs.ravel().tolist() == list(range(-top, top + 1))
    else:
        assert np.bincount(norms).tolist() == [1, 0, 6, 0, 0, 0, 6]
        assert len({tuple(x) for x in vecs.tolist()}) == len(vecs)


def test_rank16_shells_at_bound_6():
    # 480 sigma_7(n) vectors of norm 2n in an even unimodular rank-16 lattice
    for name in ("e8e8", "e16"):
        lattice = named_lattice(name)
        vecs = short_vectors(lattice, 6)
        norms = np.einsum("ni,ij,nj->n", vecs, np.array(lattice.gram), vecs)
        assert np.bincount(norms)[::2].tolist() == [1, 480, 61920, 1050240]
        assert np.array_equal(thetaforms._enumerate(lattice, 6)[1], norms)
        # one byte a coordinate: the largest is 12 for E8+E8 and 28 for E16
        assert vecs.dtype == np.int8 and vecs.nbytes == 17_802_256
    # E16's int8 row with coordinate 28 keeps its exact norm
    e16 = named_lattice("e16")
    vecs, norms = thetaforms._enumerate(e16, 6)
    i = np.abs(vecs).max(axis=1).argmax()
    assert np.abs(vecs[i]).max() == 28
    assert e16.norm(vecs[i]) == e16.norm(vecs[i].tolist()) == norms[i]


def test_short_vectors_take_the_narrowest_type_and_norm_stays_exact():
    line = LatticeGram("line", 1, [[2]])
    for top, dtype in ((100, np.int8), (127, np.int8), (128, np.int16), (200, np.int16)):
        vecs, norms = thetaforms._enumerate(line, 2 * top * top)
        assert vecs.dtype == dtype and vecs.ravel().tolist() == list(range(-top, top + 1))
        # the narrow row (top) has its exact norm: arithmetic in int8 would read 32 at top = 100;
        # the norms take the narrowest type that holds -bound - 1 (int32 at top = 200, norm 80000)
        assert norms.dtype == np.min_scalar_type(-2 * top * top - 1)
        assert line.norm(vecs[-1]) == line.norm(vecs[-1].tolist()) == norms[-1] == 2 * top * top


def test_lattice_theta_coefficients():
    e8 = named_lattice("e8")
    f = lattice_theta_coefficients(e8, 1, 3)
    assert f.weight == 4 and f.level == 1
    assert f.coefficient(HalfIntegralMatrix(1, ((0,),))) == 1
    assert f.coefficient(HalfIntegralMatrix(1, ((2,),))) == 240
    assert f.coefficient(HalfIntegralMatrix(1, ((4,),))) == 2160
    assert f.coefficient(HalfIntegralMatrix(1, ((6,),))) == 6720


def test_rank16_class_sizes_are_counted_without_widening_the_norms():
    e16 = named_lattice("e16")
    lattice_theta_coefficients(e16, 1, 3)          # the table and its int8 norms are cached
    tracemalloc.start()
    try:
        f = lattice_theta_coefficients(e16, 1, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # widening the 1,112,641 norms to intp would take 8.9 MB
    assert peak < 2 * 2 ** 20
    assert [f.coefficient(HalfIntegralMatrix(1, ((2 * n,),))) for n in range(4)] == [1, 480, 61920, 1050240]


def test_rank16_genus2_tables_agree():
    a = lattice_theta_coefficients(named_lattice("e8e8"), 2, 2)
    b = lattice_theta_coefficients(named_lattice("e16"), 2, 2)
    assert a.coeffs == b.coeffs
    assert a.coefficient(HalfIntegralMatrix(2, ((0, 0), (0, 0)))) == 1
    assert a.coefficient(HalfIntegralMatrix(2, ((2, 0), (0, 0)))) == 480


# sha256 of json.dumps(table.to_json()), recorded from the full-tuple tally kernel
# (every tuple of nonzero vectors, no sign unfolding); the two rank-16 tables agree
PINNED_TABLES = {
    ("e8", 2, 1): "5423a26038f3b4bf5f1a27b61b5a9907a3fb5a59a8cf048026ff61aea15c2d44",
    ("e8", 2, 2): "f5050d269b690e902d36e2168669c96dd352306825f20cd25eb3e7e77a579e6d",
    ("e8", 2, 3): "fb46d409f12d33bdc0a5380ba3bcba767b9d806390e7f259bb19a6fba42a4a3e",
    ("e8", 2, 4): "70370c0f774860ad97408dd12101d033b49ef278d9a8a5cab9013fdbced081e1",
    ("e8", 2, 5): "9ad59b3cb11a0b4d97a6517f17a0099a991095aa82a5c935857069570dc0676d",
    ("e8", 3, 1): "ac40ad10a7b397aa75019e1f577914d7c4b746786b827ebf15b246228435e6f6",
    ("e8", 3, 2): "9fbefe348b9a35a874ce59fe208e15a1e2c86ca08b0e2fb4f6ccedc0c00430a8",
    ("e8", 3, 3): "9e1638991ae067be31a24087feb54c849a2d6e506c50b5cb74d48bdcd065deb1",
    ("e8", 3, 4): "53fe74875c12e960f44aef4bdf0f585635615f8f8316a464545d61d0416dc3ce",
    ("e8e8", 2, 2): "6fa2650389c89e66a004597a44bca5748d395f41172a09215b1229c766e79cc4",
    ("e16", 2, 2): "6fa2650389c89e66a004597a44bca5748d395f41172a09215b1229c766e79cc4",
}


@pytest.mark.parametrize("name, genus, trace_bound", sorted(PINNED_TABLES))
def test_lattice_tables_match_pinned_hashes(name, genus, trace_bound):
    table = lattice_theta_coefficients(named_lattice(name), genus, trace_bound)
    digest = hashlib.sha256(json.dumps(table.to_json()).encode()).hexdigest()
    assert digest == PINNED_TABLES[name, genus, trace_bound]


def test_genus3_small_bound():
    f = lattice_theta_coefficients(named_lattice("e8"), 3, 1)
    assert f.coefficient(HalfIntegralMatrix(3, ((0, 0, 0), (0, 0, 0), (0, 0, 0)))) == 1
    assert f.coefficient(HalfIntegralMatrix(3, ((2, 0, 0), (0, 0, 0), (0, 0, 0)))) == 240


def test_cost_guards(monkeypatch):
    def tally(*args):
        raise AssertionError("a refused input must be refused before any tuple is tallied")

    # the pairs of the mixed-radix code are the tally step's first use of combinations
    monkeypatch.setattr(thetaforms, "combinations", tally)
    with pytest.raises(ValueError):
        lattice_theta_coefficients(named_lattice("e16"), 3, 1)
    with pytest.raises(ValueError):
        lattice_theta_coefficients(named_lattice("e8"), 4, 1)
    with pytest.raises(ValueError):
        lattice_theta_coefficients(named_lattice("e8"), 1, 9)
    # rank-16 enumeration at trace 5 would need 46.5M vectors, at trace 8 1.59e9
    for name in ("e8e8", "e16"):
        for trace_bound in (5, 8):
            with pytest.raises(ValueError, match="trace_bound <= 4"):
                lattice_theta_coefficients(named_lattice(name), 1, trace_bound)
    # E8 enumerates these in well under a second, but they hold more tuples than TALLY_BUDGET
    for genus, trace_bound, tuples in ((3, 5, 4907520000), (2, 8, 1591200000)):
        with pytest.raises(ValueError, match=f"{tuples} tuples"):
            lattice_theta_coefficients(named_lattice("e8"), genus, trace_bound)
    with pytest.raises(NotImplementedError):
        schottky_chi8_coefficients(4, 1)


def test_schottky_truncations_vanish():
    assert schottky_chi8_coefficients(1, 3).is_zero()
    assert schottky_chi8_coefficients(2, 2).is_zero()


def test_chi10_normalization_confirms_classical_constant():
    c = chi10_normalization()
    assert c == -(2.0 ** -14)


@pytest.mark.parametrize("scale", [1.5, -1, 0.25])
def test_chi10_normalization_raises_on_a_miss(monkeypatch, scale):
    product = thetaforms._even_theta_product
    monkeypatch.setattr(thetaforms, "_even_theta_product",
                        lambda tau, trunc, square: scale * product(tau, trunc, square))
    chi10_normalization.cache_clear()
    with pytest.raises(RuntimeError, match="estimate"):
        chi10_normalization()
    assert chi10_normalization.cache_info().currsize == 0


def test_chi10_leading_development():
    # second difference in z against the displayed leading term (pi z)^2 q1 q2
    t1, t2 = 3.5, 3.8
    q1q2 = cmath.exp(2j * math.pi * 1j * t1) * cmath.exp(2j * math.pi * 1j * t2)
    h = 0.05

    def at(z):
        return chi10(SiegelPoint(2, np.array([[1j * t1, z], [z, 1j * t2]])),
                     TruncationParams(radius=8, target=1e-12))

    def coeff(step):
        return (at(step) + at(-step) - 2 * at(0.0)) / (step * step) / (2 * math.pi ** 2 * q1q2)

    refined = (4 * coeff(h / 2) - coeff(h)) / 3
    assert abs(refined - 1.0) <= 1e-3


def test_chi10_vanishes_on_diagonal_with_multiplicity_two():
    assert abs(chi10(SiegelPoint.diagonal(1j, 2j))) <= 1e-10
    order = vanishing_order_fit(chi10, 1j, 2j, (0.01, 0.02, 0.03, 0.05))
    assert abs(order - 2.0) <= 0.05


def test_chi10_slash_invariance():
    tau = SiegelPoint(2, np.array([[0.2 + 1.1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.3 + 1.4j]]))
    trunc = TruncationParams(radius=12, target=1e-8)
    base = chi10(tau, trunc)
    gens = [j_matrix(2), translation(((1, 0), (0, -1))), translation(((2, 1), (1, 0))),
            gl_embedding(((1, 1), (0, 1))), gl_embedding(((0, 1), (1, 0)))]
    for m in gens:
        lhs = chi10(moebius_act(m, tau), trunc) * cocycle(m, tau) ** (-10)
        assert abs(lhs - base) <= 1e-7 * abs(base)
    word = gens[0] @ gens[2] @ gens[3]
    lhs = chi10(moebius_act(word, tau), trunc) * cocycle(word, tau) ** (-10)
    assert abs(lhs - base) <= 1e-7 * abs(base)


def test_chi10_wrong_genus():
    with pytest.raises(ValueError):
        chi10(SiegelPoint.scaled_identity(1))


def test_chi18_generic_point_and_invariance():
    off = np.array([[0, 0.31, 0.17], [0.31, 0, 0.23], [0.17, 0.23, 0]])
    tau = SiegelPoint(3, np.diag([1j, 1.1j, 1.3j]) + off)
    trunc = TruncationParams(radius=5, target=1e-8)
    value = chi18(tau, trunc)
    assert abs(value) > 1e3 * theta_tail_estimate(tau, trunc)
    b = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 2]])
    shifted = chi18(SiegelPoint(3, tau.tau + 2 * b), trunc)
    assert abs(shifted - value) <= 1e-8 * abs(value)


def test_chi18_decays_at_cusp():
    # the diagonal family lies on the zero divisor, so couple the last row
    trunc = TruncationParams(radius=5, target=1e-8)
    mags = []
    for t in (1.5, 2.5):
        tau = np.array([[1j, 0.3, 0.25], [0.3, 1.2j, 0.25], [0.25, 0.25, 1j * t]])
        mags.append(abs(chi18(SiegelPoint(3, tau), trunc)))
    assert mags[1] < mags[0] * math.exp(-math.pi / 2)


def test_chi18_guards():
    with pytest.raises(ValueError):
        chi18(SiegelPoint.scaled_identity(2))
    with pytest.raises(ValueError):
        chi18(SiegelPoint.scaled_identity(3), TruncationParams(radius=7))
