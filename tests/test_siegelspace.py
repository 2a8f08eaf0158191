import random

import numpy as np
import pytest

from siegelkit.symplectic import j_matrix, random_symplectic, translation
from siegelkit.siegelspace import (
    NumericalDegeneracyError,
    PeriodPoint,
    SiegelPoint,
    TangentDirection,
    bergman_metric,
    bergman_volume_density,
    borel_embed,
    boundary_growth_probe,
    cocycle,
    moebius_act,
    pushforward,
    random_siegel_point,
    random_tangent,
    subspace_distance,
    tangent_basis,
)


def test_siegel_point_validation():
    with pytest.raises(ValueError):
        SiegelPoint(2, np.array([[1j, 0.5], [0.2, 1j]]))      # not symmetric
    with pytest.raises(ValueError):
        SiegelPoint(2, np.diag([1j, -1j]))                    # Im not positive
    for g in (0, -1):
        with pytest.raises(ValueError, match="positive integer"):
            SiegelPoint(g, np.zeros((0, 0)))
    tau = SiegelPoint(2, np.array([[1 + 1j, 0.5], [0.5, 2j]]))
    assert tau.g == 2


def test_tangent_space_dimension():
    for g in (1, 2, 3):
        assert len(tangent_basis(g)) == g * (g + 1) // 2


def test_moebius_examples():
    tau = SiegelPoint.scaled_identity(2)
    assert np.allclose(moebius_act(j_matrix(2), tau).tau, tau.tau)   # J fixes iI
    b = ((1, 2), (2, -1))
    shifted = moebius_act(translation(b), tau)
    assert np.allclose(shifted.tau, tau.tau + np.array(b))
    ident = np.eye(4)
    assert np.allclose(moebius_act(ident, tau).tau, tau.tau)


def test_moebius_left_action_and_im_transform():
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    for _ in range(30):
        m = random_symplectic(2, rng, word_length=4, bound=1)
        n = random_symplectic(2, rng, word_length=4, bound=1)
        tau = random_siegel_point(2, nprng)
        lhs = moebius_act(m @ n, tau).tau
        rhs = moebius_act(m, moebius_act(n, tau)).tau
        assert np.max(np.abs(lhs - rhs)) <= 1e-9 * max(1.0, np.max(np.abs(lhs)))

        a, b, c, d = (np.array([[float(x) for x in row] for row in blk]) for blk in m.blocks)
        q = c @ tau.tau + d
        im_pred = np.linalg.inv(q.conj()).T @ tau.imag @ np.linalg.inv(q)
        assert np.max(np.abs(moebius_act(m, tau).imag - im_pred)) <= 1e-9


def test_moebius_degeneracy_guard():
    tau = SiegelPoint(2, np.diag([1e-13j, 1j]))
    with pytest.raises(NumericalDegeneracyError):
        moebius_act(j_matrix(2), tau)


def test_cocycle_examples_and_chain_rule():
    tau = SiegelPoint.scaled_identity(2)
    assert cocycle(np.eye(4), tau) == pytest.approx(1)
    assert cocycle(translation(((3, 1), (1, 0))), tau) == pytest.approx(1)
    assert cocycle(j_matrix(2), tau) == pytest.approx(1j ** 2)
    rng = random.Random(5)
    nprng = np.random.default_rng(5)
    for _ in range(30):
        m = random_symplectic(2, rng, word_length=3, bound=1)
        n = random_symplectic(2, rng, word_length=3, bound=1)
        tau = random_siegel_point(2, nprng)
        lhs = cocycle(m @ n, tau)
        rhs = cocycle(m, moebius_act(n, tau)) * cocycle(n, tau)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)


def test_borel_embed_at_base_point():
    tau = SiegelPoint.scaled_identity(2)
    pp = borel_embed(tau)
    assert pp.isotropy_residual() <= 1e-12
    herm = pp.positivity_matrix()
    assert np.allclose(np.linalg.eigvalsh((herm + herm.conj().T) / 2), [2.0, 2.0])


def test_period_point_rejects_indefinite_imag():
    bad_tau = np.diag([1j, -1j])
    basis = np.vstack([bad_tau, np.eye(2)])
    with pytest.raises(ValueError):
        PeriodPoint(2, basis)


def test_borel_equivariance():
    rng = random.Random(9)
    nprng = np.random.default_rng(9)
    for _ in range(20):
        tau = random_siegel_point(2, nprng)
        m = random_symplectic(2, rng, word_length=3, bound=1)
        mf = np.array([[float(x) for x in row] for row in m.entries])
        moved = mf @ borel_embed(tau).basis
        direct = borel_embed(moebius_act(m, tau)).basis
        assert subspace_distance(moved, direct) <= 1e-9


def test_bergman_metric_values():
    e11 = TangentDirection(2, np.diag([1.0, 0.0]))
    assert bergman_metric(SiegelPoint.scaled_identity(2), e11, e11) == pytest.approx(1.0)
    assert bergman_metric(SiegelPoint.scaled_identity(2, 2.0), e11, e11) == pytest.approx(0.25)


def test_bergman_invariance():
    rng = random.Random(21)
    nprng = np.random.default_rng(21)
    tau = SiegelPoint.scaled_identity(2)
    x = TangentDirection(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    j = j_matrix(2)
    before = bergman_metric(tau, x, x)
    after = bergman_metric(moebius_act(j, tau), pushforward(j, tau, x), pushforward(j, tau, x))
    assert abs(after - before) <= 1e-10 * abs(before)
    for _ in range(20):
        tau = random_siegel_point(2, nprng)
        x = random_tangent(2, nprng)
        y = random_tangent(2, nprng)
        m = random_symplectic(2, rng, word_length=3, bound=1)
        before = bergman_metric(tau, x, y)
        after = bergman_metric(
            moebius_act(m, tau), pushforward(m, tau, x), pushforward(m, tau, y)
        )
        assert abs(after - before) <= 1e-8 * max(1.0, abs(before))


def test_volume_density():
    assert bergman_volume_density(SiegelPoint.scaled_identity(3)) == pytest.approx(1.0)
    assert bergman_volume_density(SiegelPoint.scaled_identity(2, 2.0)) == pytest.approx(1 / 64)
    rng = random.Random(2)
    nprng = np.random.default_rng(2)
    for _ in range(30):
        tau = random_siegel_point(2, nprng)
        m = random_symplectic(2, rng, word_length=3, bound=1)
        lhs = bergman_volume_density(moebius_act(m, tau)) * abs(cocycle(m, tau)) ** (-2 * 3)
        rhs = bergman_volume_density(tau)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)


def test_boundary_growth_probe():
    radii = [1e-3, 3e-4, 1e-4, 3e-5, 1e-5]
    rep1 = boundary_growth_probe(1, radii)
    assert rep1["max_exponent"] <= 0 + 1e-6
    assert rep1["directions"][0]["fitted_exponent"] == pytest.approx(-2.0, abs=1e-6)
    rep2 = boundary_growth_probe(2, radii)
    assert rep2["max_exponent"] <= 2.0
    # interior direction stays O(1): exponent 0
    assert rep2["directions"][0]["fitted_exponent"] == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(ValueError):
        boundary_growth_probe(1, [0.5])
    with pytest.raises(ValueError):
        boundary_growth_probe(3, radii)


@pytest.mark.parametrize("radii", [[], [1e-3], [1e-3, 1e-3]])
def test_boundary_growth_needs_two_distinct_radii(radii):
    for g in (1, 2):
        with pytest.raises(ValueError, match="two distinct radii"):
            boundary_growth_probe(g, radii)
