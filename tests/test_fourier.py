import cmath
import json
import math
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from siegelkit import exact

from siegelkit.siegelspace import SiegelPoint
from siegelkit.fourier import (
    FourierExpansion,
    HalfIntegralMatrix,
    SlashContext,
    decay_check,
    evaluate,
    is_cusp_level1,
    siegel_phi,
    symmetry_check,
)
from siegelkit.thetaforms import lattice_theta_coefficients, named_lattice, short_vectors


def _principal_minors_nonnegative(m):
    """Reference PSD test: every principal minor is >= 0."""
    n = len(m)
    return all(exact.det(tuple(tuple(m[i][j] for j in rows) for i in rows)) >= 0
               for size in range(1, n + 1) for rows in combinations(range(n), size))


def _symmetric(g, upper):
    rows = [[0] * g for _ in range(g)]
    it = iter(upper)
    for i in range(g):
        for j in range(i, g):
            rows[i][j] = rows[j][i] = next(it)
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_psd_elimination_matches_principal_minors_exhaustively(g):
    for upper in product(range(-2, 3), repeat=g * (g + 1) // 2):
        m = _symmetric(g, upper)
        assert (exact.symmetric_pivots(m) is not None) == _principal_minors_nonnegative(m), m


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=10, max_size=10))
def test_psd_elimination_matches_principal_minors_at_genus_4(upper):
    m = _symmetric(4, upper)
    assert (exact.symmetric_pivots(m) is not None) == _principal_minors_nonnegative(m)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4), min_size=1, max_size=4))
def test_psd_elimination_matches_principal_minors_on_gram_matrices(rows):
    # t(X) X is PSD, often singular; this exercises the zero-pivot branch at g = 4
    m = exact.mat_mul(exact.transpose(rows), rows)
    assert exact.symmetric_pivots(m) is not None and _principal_minors_nonnegative(m)


def test_half_integral_validation():
    HalfIntegralMatrix(2, ((2, 1), (1, 2)))
    HalfIntegralMatrix(2, ((2, 2), (2, 2)))            # PSD with zero eigenvalue
    with pytest.raises(ValueError):
        HalfIntegralMatrix(2, ((2, 3), (3, 2)))        # indefinite
    with pytest.raises(ValueError):
        HalfIntegralMatrix(2, ((1, 0), (1, 1)))        # not symmetric
    with pytest.raises(ValueError):
        HalfIntegralMatrix(2, ((-2, 0), (0, 2)))
    # an entry that is not an integer is refused, not truncated or parsed
    for bad in (2.5, "4", 2.999, None, math.inf):
        with pytest.raises(ValueError, match="integer entries"):
            HalfIntegralMatrix(1, ((bad,),))
    assert HalfIntegralMatrix(1, ((2.0,),)).twoA == ((2,),)
    # keys are cached once valid; an invalid key raises on every call
    assert HalfIntegralMatrix.from_key(2, (2, 1, 2)) == HalfIntegralMatrix(2, ((2, 1), (1, 2)))
    for _ in range(2):
        with pytest.raises(ValueError):
            HalfIntegralMatrix.from_key(2, (2, 3, 2))


def test_singularity_flag():
    assert HalfIntegralMatrix(2, ((2, 0), (0, 0))).is_singular()
    assert not HalfIntegralMatrix(2, ((2, 0), (0, 2))).is_singular()
    assert HalfIntegralMatrix(2, ((0, 0), (0, 0))).is_singular()


def test_evaluate_constant_and_single_key():
    const = FourierExpansion(2, 1, 4, {HalfIntegralMatrix(2, ((0, 0), (0, 0))): 1})
    for tau in (SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(2j, 3j)):
        assert evaluate(const, tau) == pytest.approx(1.0)
    single = FourierExpansion(2, 1, 4, {HalfIntegralMatrix(2, ((2, 0), (0, 0))): 1})
    val = evaluate(single, SiegelPoint.diagonal(1j, 1j))
    assert val == pytest.approx(math.exp(-math.pi))


def test_evaluate_matches_direct_lattice_sum():
    # independent oracle: direct sum over enumerated vectors with the same
    # half-integral indexing, exp(pi i t(x) G x tau / 2)
    e8 = named_lattice("e8")
    f = lattice_theta_coefficients(e8, 1, 4)
    tau = SiegelPoint(1, np.array([[1j]]))
    direct = sum(
        cmath.exp(1j * math.pi * e8.norm(tuple(v)) * 1j / 2)
        for v in short_vectors(e8, 8).tolist()
    )
    assert abs(evaluate(f, tau) - direct) <= 1e-9 * abs(direct)


def test_json_round_trip_bit_exact():
    big = 10 ** 30 + 7
    f = FourierExpansion(
        2, 1, 8,
        {
            HalfIntegralMatrix(2, ((0, 0), (0, 0))): 1,
            HalfIntegralMatrix(2, ((2, 1), (1, 2))): big,
            HalfIntegralMatrix(2, ((4, 0), (0, 2))): complex(1.5, -2.25),
        },
    )
    again = FourierExpansion.from_json(json.loads(f.to_json_str()))
    assert again.coeffs == f.coeffs
    assert isinstance(again.coeffs[(2, 1, 2)], int)
    assert again.coeffs[(2, 1, 2)] == big


def test_symmetry_check_identity_passes():
    f = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    ctx = SlashContext(((1, 0), (0, 1)), ((0, 0), (0, 0)))
    assert symmetry_check(f, ctx) == []


@pytest.mark.parametrize("v", [((1, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (-1, 1))])
def test_symmetry_check_theta_gl_invariance(v):
    f = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    ctx = SlashContext(v, ((0, 0), (0, 0)))
    assert symmetry_check(f, ctx, tol=1e-12) == []


def test_symmetry_check_detects_odd_weight_obstruction():
    # V = -1 at genus 1: det V = -1, so odd weight forces c(A) = -c(A)
    f = FourierExpansion(1, 1, 3, {HalfIntegralMatrix(1, ((2,),)): 5})
    ctx = SlashContext(((-1,),), ((0,),))
    violations = symmetry_check(f, ctx)
    assert len(violations) == 1
    assert violations[0][1] == pytest.approx(10.0)


def test_trace_bound_below_the_support_is_refused():
    # symmetry_check skips indices past trace_bound, so such a bound would switch it off
    coeffs = {HalfIntegralMatrix(1, ((2,),)): 1, HalfIntegralMatrix(1, ((4,),)): 1}
    assert FourierExpansion(1, 1, 5, coeffs).trace_bound == 4
    assert FourierExpansion(1, 1, 5, coeffs, trace_bound=6).trace_bound == 6
    for bound in (3, 1, -1):
        with pytest.raises(ValueError, match="trace_bound"):
            FourierExpansion(1, 1, 5, coeffs, trace_bound=bound)
    with pytest.raises(ValueError, match="trace_bound"):
        FourierExpansion(1, 1, 5, {}, trace_bound=-1)
    assert len(symmetry_check(FourierExpansion(1, 1, 5, coeffs), SlashContext(((-1,),), ((0,),)))) == 2


def test_difference_keeps_the_common_trace_window():
    narrow = FourierExpansion(1, 1, 4, {HalfIntegralMatrix(1, ((2,),)): 240})
    wide = FourierExpansion(1, 1, 4, {HalfIntegralMatrix(1, ((2,),)): 240,
                                      HalfIntegralMatrix(1, ((4,),)): 2160})
    for diff in (wide - narrow, narrow - wide):
        assert (diff.trace_bound, diff.coeffs) == (2, {(2,): 0})


def test_symmetry_check_refuses_a_context_of_another_degree():
    genus_2 = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    with pytest.raises(ValueError, match="degree 1 but the expansion has genus 2"):
        symmetry_check(genus_2, SlashContext(((1,),), ((0,),)))
    genus_1 = FourierExpansion(1, 1, 4, {HalfIntegralMatrix(1, ((2,),)): 240})
    with pytest.raises(ValueError, match="degree 2 but the expansion has genus 1"):
        symmetry_check(genus_1, SlashContext(((1, 0), (0, 1)), ((0, 0), (0, 0))))


def test_negative_genus_is_refused():
    with pytest.raises(ValueError, match="genus"):
        FourierExpansion(-1, 1, 4, {})
    assert FourierExpansion(0, 1, 4, {HalfIntegralMatrix(0, ()): 1}).coeffs == {(): 1}


def test_slash_context_validation():
    with pytest.raises(ValueError):
        SlashContext(((1, 1), (0, 1)), ((0, 1), (0, 0)))   # VU not symmetric
    with pytest.raises(ValueError, match="2 x 2"):
        SlashContext(((1, 0), (0, 1)), ((0,),))             # U is 1 x 1
    SlashContext(((1, 0), (0, 1)), ((2, 1), (1, 0)), level=1)
    with pytest.raises(ValueError):
        SlashContext(((1, 1), (0, 1)), ((0, 0), (0, 0)), level=2)


def test_siegel_phi_examples():
    const = FourierExpansion(2, 1, 4, {HalfIntegralMatrix(2, ((0, 0), (0, 0))): 7})
    dropped = siegel_phi(const)
    assert dropped.g == 1 and dropped.coeffs == {(0,): 7}
    e8 = named_lattice("e8")
    assert siegel_phi(lattice_theta_coefficients(e8, 2, 3)).coeffs == \
        lattice_theta_coefficients(e8, 1, 3).coeffs
    genus0 = siegel_phi(dropped)
    assert genus0.g == 0 and genus0.coeffs == {(): 7}


def test_phi_on_rank16_lattices():
    for name in ("e8e8", "e16"):
        lat = named_lattice(name)
        assert siegel_phi(lattice_theta_coefficients(lat, 2, 2)).coeffs == \
            lattice_theta_coefficients(lat, 1, 2).coeffs


def test_truncation_monotonicity():
    e8 = named_lattice("e8")
    small = lattice_theta_coefficients(e8, 2, 2)
    large = lattice_theta_coefficients(e8, 2, 3)
    for key, value in small.coeffs.items():
        assert large.coeffs[key] == value


def test_is_cusp_level1():
    zero = FourierExpansion(2, 1, 8, {HalfIntegralMatrix(2, ((0, 0), (0, 0))): 0})
    ok, witness = is_cusp_level1(zero)
    assert ok and witness is None

    e8_g2 = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    ok, witness = is_cusp_level1(e8_g2)
    assert not ok
    assert witness.is_singular()
    # the first nonzero singular index is the constant term; the rank-one
    # singular index carries the enumerated root count
    assert e8_g2.coefficient(HalfIntegralMatrix(2, ((2, 0), (0, 0)))) == 240

    level2 = FourierExpansion(2, 2, 8, {HalfIntegralMatrix(2, ((0, 0), (0, 0))): 1})
    with pytest.raises(ValueError):
        is_cusp_level1(level2)


def test_cusp_agrees_with_phi_where_computable():
    e8_g2 = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    assert not is_cusp_level1(e8_g2)[0]
    assert not siegel_phi(e8_g2).is_zero()
    zero = FourierExpansion(2, 1, 8, {HalfIntegralMatrix(2, ((2, 0), (0, 2))): 0,
                                      HalfIntegralMatrix(2, ((0, 0), (0, 0))): 0})
    assert is_cusp_level1(zero)[0]
    assert siegel_phi(zero).is_zero()


def test_decay_check_theta_limit():
    e8 = named_lattice("e8")
    f2 = lattice_theta_coefficients(e8, 2, 3)
    f1 = lattice_theta_coefficients(e8, 1, 3)
    tau_prime = SiegelPoint(1, np.array([[1j]]))
    report = decay_check(lambda point: evaluate(f2, point), tau_prime, (2, 3, 5, 9))
    target = abs(evaluate(f1, tau_prime))
    assert abs(report["limit"] - target) <= 1e-8 * target

    zero = FourierExpansion(2, 1, 8, {HalfIntegralMatrix(2, ((0, 0), (0, 0))): 0})
    report = decay_check(lambda point: evaluate(zero, point), tau_prime, (2, 3, 4, 5))
    assert report["identically_zero"]

    with pytest.raises(ValueError):
        decay_check(lambda point: 1.0, tau_prime, (1, 2, 3))
    with pytest.raises(ValueError):
        decay_check(lambda point: 1.0, tau_prime, (3, 2, 4, 5))
