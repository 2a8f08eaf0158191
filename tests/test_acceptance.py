"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each test prints "ACCEPTANCE <n>: PASS ..." after its asserts
(reaching the print means every bound held) and enforces its wall budget.
"""

import math
import random
import time

import numpy as np
import pytest

from siegelkit import exact
from siegelkit.symplectic import (
    SymplecticForm,
    gl_embedding,
    is_symplectic,
    j_matrix,
    pairing,
    random_symplectic,
    translation,
)
from siegelkit.siegelspace import (
    SiegelPoint,
    bergman_metric,
    bergman_volume_density,
    borel_embed,
    boundary_growth_probe,
    cocycle,
    moebius_act,
    random_siegel_point,
    random_tangent,
    subspace_distance,
)
from siegelkit.hodge import (
    higgs_curvature_identity_check,
    hodge_metric_tangent,
    kahler_einstein_check,
)
from siegelkit.fourier import (
    HalfIntegralMatrix,
    decay_check,
    is_cusp_level1,
    siegel_phi,
)
from siegelkit.thetaforms import (
    TruncationParams,
    chi10,
    lattice_theta_coefficients,
    named_lattice,
    schottky_chi8_coefficients,
    vanishing_order_fit,
)
from siegelkit.toroidal import principal_cone, verify_divisor_pullback
from siegelkit.generaltype import reproduce_example_table


def _report(number, label, start, budget):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"criterion {number} exceeded budget: {elapsed:.1f}s"
    print(f"ACCEPTANCE {number}: PASS {label} ({elapsed:.2f}s)")


def test_criterion_01_symplectic_suite():
    start = time.perf_counter()
    rng = random.Random(2024)
    form = SymplecticForm(2)
    for _ in range(1000):
        m = random_symplectic(2, rng, word_length=6, bound=2)
        assert is_symplectic(m.entries)
        assert m.det() == 1
        u = [rng.randint(-3, 3) for _ in range(4)]
        v = [rng.randint(-3, 3) for _ in range(4)]
        mu = exact.mat_vec(m.entries, u)
        mv = exact.mat_vec(m.entries, v)
        assert form.pairing(mu, mv) == form.pairing(u, v)
    _report(1, "1000 exact symplectic words in Sp(4,Z)", start, 5.0)


def test_criterion_02_action_cocycle():
    start = time.perf_counter()
    rng = random.Random(7)
    nprng = np.random.default_rng(7)
    for _ in range(200):
        m = random_symplectic(2, rng, word_length=3, bound=1)
        n = random_symplectic(2, rng, word_length=3, bound=1)
        tau = random_siegel_point(2, nprng)
        lhs = cocycle(m @ n, tau)
        rhs = cocycle(m, moebius_act(n, tau)) * cocycle(n, tau)
        assert abs(lhs - rhs) <= 1e-9 * abs(lhs)
        q = np.array([[float(x) for x in row] for row in m.blocks[2]]) @ tau.tau \
            + np.array([[float(x) for x in row] for row in m.blocks[3]])
        im_pred = np.linalg.inv(q.conj()).T @ tau.imag @ np.linalg.inv(q)
        scale = max(1.0, float(np.max(np.abs(im_pred))))
        assert np.max(np.abs(moebius_act(m, tau).imag - im_pred)) <= 1e-9 * scale
    _report(2, "chain rule + Im transform on 200 random pairs", start, 5.0)


def test_criterion_03_borel_embedding():
    start = time.perf_counter()
    rng = random.Random(11)
    nprng = np.random.default_rng(11)
    for _ in range(100):
        tau = random_siegel_point(2, nprng)
        pp = borel_embed(tau)
        assert pp.isotropy_residual() <= 1e-10
        herm = pp.positivity_matrix()
        assert np.min(np.linalg.eigvalsh((herm + herm.conj().T) / 2)) > 0
        m = random_symplectic(2, rng, word_length=3, bound=1)
        mf = np.array([[float(x) for x in row] for row in m.entries])
        assert subspace_distance(mf @ pp.basis, borel_embed(moebius_act(m, tau)).basis) <= 1e-9
    _report(3, "period-domain conditions + equivariance at 100 points", start, 5.0)


def test_criterion_04_metric_equality():
    start = time.perf_counter()
    nprng = np.random.default_rng(42)
    ratios = []
    for _ in range(25):
        tau = random_siegel_point(2, nprng)
        x = random_tangent(2, nprng)
        ratios.append(hodge_metric_tangent(tau, x, x).real / bergman_metric(tau, x, x).real)
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    assert spread <= 1e-8
    _report(4, f"Hodge/Bergman ratio spread {spread:.2e} over 25 samples", start, 30.0)


def test_criterion_05_kahler_einstein():
    start = time.perf_counter()
    nprng = np.random.default_rng(5)
    samples = [SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(1j, 2j)]
    samples += [random_siegel_point(2, nprng) for _ in range(3)]
    report = kahler_einstein_check(samples)
    assert report["dw_residual"] <= 1e-4
    lams = report["lambda"]
    assert (max(lams) - min(lams)) / abs(lams[0]) <= 1e-3
    g1 = kahler_einstein_check([SiegelPoint.scaled_identity(1)])
    assert abs(g1["lambda"][0] - 2.0) <= 1e-4
    assert report["pass"] and g1["pass"]
    _report(5, f"d(omega) {report['dw_residual']:.1e}, lambda {lams[0]:.4f} (g=1: 2)", start, 120.0)


def test_criterion_06_curvature_identity():
    start = time.perf_counter()
    report = higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))
    assert report["curvature_residual"] <= 1e-3
    assert report["pass"]
    _report(6, f"curvature residual {report['curvature_residual']:.1e}", start, 60.0)


def test_criterion_07_volume_transformation():
    start = time.perf_counter()
    rng = random.Random(3)
    nprng = np.random.default_rng(3)
    for _ in range(100):
        tau = random_siegel_point(2, nprng)
        m = random_symplectic(2, rng, word_length=3, bound=1)
        lhs = bergman_volume_density(moebius_act(m, tau)) * abs(cocycle(m, tau)) ** (-2 * 3)
        rhs = bergman_volume_density(tau)
        assert abs(lhs - rhs) <= 1e-9 * abs(rhs)
    _report(7, "volume density transformation on 100 pairs", start, 5.0)


def test_criterion_08_lattice_theta():
    start = time.perf_counter()
    e8 = named_lattice("e8")
    f1 = lattice_theta_coefficients(e8, 1, 1)
    assert f1.coefficient(HalfIntegralMatrix(1, ((2,),))) == 240
    a = lattice_theta_coefficients(named_lattice("e8e8"), 2, 2)
    b = lattice_theta_coefficients(named_lattice("e16"), 2, 2)
    assert a.coeffs == b.coeffs
    assert siegel_phi(lattice_theta_coefficients(e8, 2, 3)).coeffs == \
        lattice_theta_coefficients(e8, 1, 3).coeffs
    _report(8, "E8 roots 240; rank-16 genus-2 tables agree; Phi exact", start, 180.0)


def test_criterion_09_chi10():
    start = time.perf_counter()
    assert abs(chi10(SiegelPoint.diagonal(1j, 2j))) <= 1e-10
    order = vanishing_order_fit(chi10, 1j, 2j, (0.01, 0.02, 0.03, 0.05))
    assert abs(order - 2.0) <= 0.05
    tau = SiegelPoint(2, np.array([[0.2 + 1.1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.3 + 1.4j]]))
    trunc = TruncationParams(radius=12, target=1e-8)
    base = chi10(tau, trunc)
    gens = [j_matrix(2), translation(((1, 0), (0, -1))), translation(((2, 1), (1, 0))),
            gl_embedding(((1, 1), (0, 1))), gl_embedding(((0, 1), (1, 0)))]
    for m in gens:
        lhs = chi10(moebius_act(m, tau), trunc) * cocycle(m, tau) ** (-10)
        assert abs(lhs - base) <= 1e-7 * abs(base)
    zeta = 0.3

    def shifted(point):
        t = point.tau.copy()
        t[0, 1] += zeta
        t[1, 0] += zeta
        return chi10(SiegelPoint(2, t), trunc)

    report = decay_check(shifted, SiegelPoint(1, np.array([[1j]])), (2, 3, 4, 5))
    assert report["slope"] <= -math.pi / 2
    _report(9, f"vanishing order {order:.3f}, decay slope {report['slope']:.2f}", start, 120.0)


def test_criterion_10_cusp_logic():
    start = time.perf_counter()
    e8_g2 = lattice_theta_coefficients(named_lattice("e8"), 2, 2)
    ok, witness = is_cusp_level1(e8_g2)
    assert not ok and witness is not None and witness.is_singular()
    assert e8_g2.coefficient(witness) != 0
    schottky = schottky_chi8_coefficients(2, 2)
    ok, witness = is_cusp_level1(schottky)
    assert ok and witness is None
    _report(10, "theta rejected with singular witness; difference accepted", start, 10.0)


def test_criterion_11_toroidal_lemma():
    start = time.perf_counter()
    cone = principal_cone(2)
    for n, m in ((2, 1), (3, 1), (4, 2), (6, 2), (6, 3)):
        assert verify_divisor_pullback(n, m, cone) == (n // m,) * 3
    _report(11, "pullback multiplicities n/m on the degree-2 fixture", start, 1.0)


def test_criterion_12_certification_table():
    start = time.perf_counter()
    rows = reproduce_example_table()
    got = {r["g"]: r["threshold"] for r in rows}
    assert got == {2: 10, 3: 9, 4: 8}
    chi10_row = next(r for r in rows if r["form"] == "chi10")
    assert set(chi10_row["certificate"].evidence) == {
        "chi10:diagonal-vanishing",
        "chi10:vanishing-order-2",
        "chi10:slash-invariance-weight-10",
        "chi10:cusp-decay",
    }
    _report(12, "thresholds (2,10) (3,9) (4,8) with in-run evidence", start, 300.0)


def test_criterion_13_boundary_growth():
    start = time.perf_counter()
    radii = [1e-3, 3e-4, 1e-4, 3e-5, 1e-5]
    rep1 = boundary_growth_probe(1, radii)
    assert rep1["max_exponent"] <= 1e-6
    rep2 = boundary_growth_probe(2, radii)
    assert rep2["max_exponent"] <= 2.0
    _report(13, f"log-frame exponents g=1: {rep1['max_exponent']:.2f}, "
               f"g=2: {rep2['max_exponent']:.2f}", start, 60.0)
