import itertools
import json

import numpy as np
import pytest

from siegelkit import hodge
from siegelkit.cli import main
from siegelkit.symplectic import j_matrix
from siegelkit.siegelspace import (
    SiegelPoint,
    TangentDirection,
    bergman_metric,
    borel_embed,
    j_matrix_float,
    moebius_act,
    pushforward,
    random_siegel_point,
    random_tangent,
    tangent_basis,
)
from siegelkit.hodge import (
    HodgeStructureW1,
    _frame_grams,
    _metric_stack,
    higgs_curvature_identity_check,
    hodge_inner,
    hodge_metric_matrix,
    hodge_metric_tangent,
    kahler_einstein_check,
    kodaira_spencer,
)


def test_hodge_inner_base_point():
    tau = SiegelPoint.scaled_identity(2)
    st = HodgeStructureW1.from_tau(tau)
    f = st.F1.basis
    for j in range(2):
        assert hodge_inner(st, f[:, j], f[:, j]) == pytest.approx(2.0)
    # H^{1,0} is orthogonal to H^{0,1}
    assert abs(hodge_inner(st, f[:, 0], f[:, 1].conj())) <= 1e-12


def test_hodge_inner_positive_definite():
    rng = np.random.default_rng(4)
    for _ in range(25):
        tau = random_siegel_point(2, rng)
        st = HodgeStructureW1.from_tau(tau)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        val = hodge_inner(st, v, v)
        assert abs(val.imag) <= 1e-10 * abs(val)
        assert val.real > 0


def test_kodaira_spencer_linear_injective():
    tau = SiegelPoint.scaled_identity(2)
    zero = kodaira_spencer(tau, TangentDirection(2, np.zeros((2, 2))))
    assert np.max(np.abs(zero.matrix)) <= 1e-12
    mats = [kodaira_spencer(tau, x).matrix for x in tangent_basis(2)]
    flat = np.array([m.ravel() for m in mats])
    gram = flat @ flat.conj().T
    assert np.min(np.linalg.svd(gram, compute_uv=False)) > 0.1
    # linearity
    rng = np.random.default_rng(8)
    x = random_tangent(2, rng)
    y = random_tangent(2, rng)
    lhs = kodaira_spencer(tau, TangentDirection(2, 2 * x.X + 3j * y.X)).matrix
    rhs = 2 * kodaira_spencer(tau, x).matrix + 3j * kodaira_spencer(tau, y).matrix
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_kodaira_spencer_symmetric_at_random_points():
    rng = np.random.default_rng(12)
    for _ in range(20):
        tau = random_siegel_point(2, rng)
        x = random_tangent(2, rng)
        assert kodaira_spencer(tau, x).symmetry_defect() <= 1e-9


def test_metric_ratio_constant():
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(25):
        tau = random_siegel_point(2, rng)
        x = random_tangent(2, rng)
        h = hodge_metric_tangent(tau, x, x).real
        b = bergman_metric(tau, x, x).real
        ratios.append(h / b)
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    assert spread <= 1e-8


def test_metric_zero_direction_and_invariance():
    tau = SiegelPoint.scaled_identity(2)
    zero = TangentDirection(2, np.zeros((2, 2)))
    assert abs(hodge_metric_tangent(tau, zero, zero)) <= 1e-14
    j = j_matrix(2)
    x = TangentDirection(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    before = hodge_metric_tangent(tau, x, x)
    after = hodge_metric_tangent(moebius_act(j, tau), pushforward(j, tau, x), pushforward(j, tau, x))
    assert abs(after - before) <= 1e-8 * abs(before)


def _reference_grams(tau):
    """Per-entry reference: the frame Gram matrix of E and the Hodge metric
    matrix, one decomposition and one hodge_inner per entry."""
    g = tau.g
    st = HodgeStructureW1.from_tau(tau)
    f = st.F1.basis
    reps = [f.conj() @ st.decompose(np.eye(2 * g)[:, j])[1] for j in range(g)]
    vectors = [f[:, j] for j in range(g)] + reps
    bundle = np.array([[hodge_inner(st, u, v) for v in vectors] for u in vectors])
    frame = bundle[:g, :g]
    s = np.linalg.inv(np.linalg.cholesky((frame + frame.conj().T) / 2)).conj().T
    images = [f.conj() @ st.decompose(np.vstack([x.X, np.zeros((g, g))]))[1] @ s
              for x in tangent_basis(g)]
    metric = np.array([[sum(hodge_inner(st, u[:, a], v[:, a]) for a in range(g)) for v in images]
                       for u in images])
    return bundle, (metric + metric.conj().T) / 2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_kernel_matches_per_entry_reference(g):
    rng = np.random.default_rng(30 + g)
    taus = [random_siegel_point(g, rng) for _ in range(4)]
    dirs = np.array([x.X for x in tangent_basis(g)])
    stacked_bundle = _frame_grams(np.array([t.tau for t in taus]))
    stacked_metric = _metric_stack(np.array([t.tau for t in taus]), dirs)
    for k, tau in enumerate(taus):
        bundle, metric = _reference_grams(tau)
        for got in (stacked_bundle[k], _frame_grams(tau.tau[None])[0]):
            assert np.max(np.abs(got - bundle)) <= 1e-12 * np.max(np.abs(bundle))
        for got in (stacked_metric[k], hodge_metric_matrix(tau)):
            assert np.max(np.abs(got - metric)) <= 1e-12 * np.max(np.abs(metric))


def _float_row_layout(m, steps):
    """The stencil layout by np.unique over float rows of step * offset, kept as the reference."""
    legs = hodge._LEGS[:, None] * np.eye(m)[:, None]
    around = legs[None, :, :, None] + legs[:, None, None]
    coords = np.concatenate([legs.reshape(-1, m), around.reshape(-1, m)])
    coords = np.hstack([coords.real, coords.imag]).astype(int)
    offsets, index = np.unique(np.multiply.outer(np.asarray(steps), coords).reshape(-1, 2 * m), axis=0,
                               return_inverse=True)
    return offsets, index.ravel()


@pytest.mark.parametrize("h", [1e-3, 7.3e-4])
@pytest.mark.parametrize("halved", [False, True], ids=["h", "h-and-h/2"])
@pytest.mark.parametrize("m", [1, 3, 6, 10])
def test_stencil_layout_matches_the_float_row_reference(m, halved, h):
    steps = [h, h / 2] if halved else [h]
    offsets, index = hodge._stencil_layout(m, steps)
    expected, expected_index = _float_row_layout(m, steps)
    # the same points in the same order, bit for bit, and every row on the same point
    assert offsets.shape == expected.shape and offsets.tobytes() == expected.tobytes()
    assert offsets[index].tobytes() == expected[expected_index].tobytes()


def test_stencil_layout_refuses_steps_off_the_least_step():
    with pytest.raises(ValueError, match="integer multiples"):
        hodge._stencil_layout(2, [1e-3, 3e-4])


@pytest.mark.parametrize("g", [1, 2, 3])
def test_real_splitting_matrix_has_the_condition_number_of_the_complex_one(g):
    rng = np.random.default_rng(70 + g)
    samples = [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng, s) for s in (0.5, 2, 5)]
    for tau in samples:
        f = borel_embed(tau).basis
        real = np.linalg.cond(np.hstack([f.real, f.imag]))
        complex_ = np.linalg.cond(np.hstack([f, f.conj()]))
        assert abs(real - complex_) <= 1e-12 * complex_


@pytest.mark.parametrize("g", [2, 3])
def test_metric_contraction_matches_the_einsum_reference(g):
    rng = np.random.default_rng(80 + g)
    taus = np.array([random_siegel_point(g, rng).tau for _ in range(4)])
    grams = _frame_grams(taus)
    frame = grams[:, :g, :g]
    frame_inv = np.linalg.inv((frame + frame.conj().swapaxes(-1, -2)) / 2)
    basis = np.array([x.X for x in tangent_basis(g)])
    for dirs in (basis, np.array([random_tangent(g, rng).X for _ in range(3)])):
        out = np.einsum("kba,pbc,lcd,pda->pkl", dirs, grams[:, g:, g:], dirs.conj(), frame_inv.conj())
        expected = (out + out.conj().swapaxes(-1, -2)) / 2
        assert np.max(np.abs(_metric_stack(taus, dirs) - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_stacked_higgs_matrices_match_one_direction_at_a_time():
    rng = np.random.default_rng(90)
    tau = random_siegel_point(2, rng)
    dirs = np.array([random_tangent(2, rng).X for _ in range(3)])
    st = HodgeStructureW1.from_tau(tau)
    f = st.F1.basis
    for x, got in zip(dirs, hodge._higgs_matrices(tau, dirs)):
        _, b = st.decompose(np.vstack([x, np.zeros((2, 2))]))
        assert np.max(np.abs(got - (f.conj() @ b).T @ j_matrix_float(2) @ f)) <= 1e-13


# lambda at i I computed with the float-row stencil layout, the complex splitting
# check [F, conj F] and the four-operand einsum contraction
RECORDED_LAMBDA = {1: 2.0000140005905678, 2: 3.0000176673440144, 3: 4.000021500570618}


@pytest.mark.parametrize("g", [1, 2, 3])
def test_einstein_constant_at_i_keeps_its_recorded_value(g):
    lam = kahler_einstein_check([SiegelPoint.scaled_identity(g)])["lambda"][0]
    assert abs(lam - RECORDED_LAMBDA[g]) <= 1e-9 * RECORDED_LAMBDA[g]


def test_kahler_einstein_g1_closed_form():
    report = kahler_einstein_check([SiegelPoint.scaled_identity(1),
                                    SiegelPoint.scaled_identity(1, 1.7)])
    for lam in report["lambda"]:
        assert lam == pytest.approx(2.0, abs=1e-4)
    assert report["dw_residual"] <= 1e-4
    assert report["pass"] is True


def test_kahler_einstein_g2_consistency():
    samples = [SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(1j, 2j)]
    report = kahler_einstein_check(samples)
    lams = report["lambda"]
    assert abs(lams[0] - lams[1]) <= 1e-3 * abs(lams[0])
    assert report["dw_residual"] <= 1e-4
    assert report["einstein_residual"] <= 1e-3
    assert report["pass"] is True


@pytest.mark.parametrize("g", [1, 2, 3])
def test_einstein_constant_is_g_plus_1(g):
    rng = np.random.default_rng(50 + g)
    samples = [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]
    report = kahler_einstein_check(samples)
    for lam in report["lambda"]:
        assert abs(lam - (g + 1)) <= 1e-3 * (g + 1)
    assert report["pass"] is True


def test_einstein_check_passes_over_the_cli_seed_one_points():
    # i I and seed 1's first 199 draws, as einstein-check --points 200 takes them; at step h alone
    # the O(h^2) truncation errors read d(omega) 5.1e-4 and an Einstein residual 1.5e-3 there
    rng = np.random.default_rng(1)
    samples = [SiegelPoint.scaled_identity(2)] + [random_siegel_point(2, rng) for _ in range(199)]
    report = kahler_einstein_check(samples)
    assert report["dw_residual"] <= hodge.DW_BOUND
    assert report["einstein_residual"] <= hodge.EINSTEIN_BOUND
    assert report["pass"] is True


def _log_det_ricci(tau, h=1e-3):
    """Reference Ricci form d_a dbar_b log det G: a second difference of
    log det G over the 4 x 4 legs tau + h (s X_a + t X_b), s, t in {1, -1, i, -i}."""
    dirs = np.array([x.X for x in tangent_basis(tau.g)])
    m = len(dirs)
    shifts = h * np.array([1, -1, 1j, -1j])[:, None, None] * dirs[:, None]     # (a, s, g, g)
    points = tau.tau + shifts[:, None, :, None] + shifts[None, :, None, :]      # (a, b, s, t, g, g)
    log_det = np.linalg.slogdet(_metric_stack(points.reshape(-1, tau.g, tau.g), dirs))[1]
    d_dz, d_dzbar = np.array([1, -1, -1j, 1j]) / 4, np.array([1, -1, 1j, -1j]) / 4
    return np.einsum("abst,s,t->ab", log_det.reshape(m, m, 4, 4), d_dz, d_dzbar) / h**2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_ricci_trace_matches_the_log_det_reference(g):
    rng = np.random.default_rng(60 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]:
        omega = hodge._chern_curvature(lambda taus: _metric_stack(taus, dirs), tau, dirs, [1e-3])[2][0]
        ricci, reference = -np.trace(omega, axis1=-2, axis2=-1), _log_det_ricci(tau)
        assert np.max(np.abs(ricci - reference)) <= 1e-4 * np.max(np.abs(reference))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_stencil_base_row_is_the_kernel_at_tau(g):
    rng = np.random.default_rng(70 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    for tau in [SiegelPoint.scaled_identity(g), random_siegel_point(g, rng)]:
        for kernel, reference in ((_frame_grams, _frame_grams(tau.tau[None])[0]),
                                  (lambda taus: _metric_stack(taus, dirs), hodge_metric_matrix(tau))):
            for steps in ([1e-3], [1e-3, 5e-4]):
                gram = hodge._chern_curvature(kernel, tau, dirs, steps)[0]
                np.testing.assert_allclose(gram, reference, rtol=1e-14, atol=0)


# the curvature check reads G(tau) from the stencil's zero offset: 85 distinct points at
# m = 3 and one step; the Einstein check's 157 (steps h, h/2) plus its base-point metric
@pytest.mark.parametrize("check, points", [
    (lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]), 158),
    (lambda: higgs_curvature_identity_check(SiegelPoint.scaled_identity(2)), 85),
], ids=["einstein", "curvature"])
def test_each_stencil_point_is_evaluated_once(monkeypatch, check, points):
    stacks = []

    def kernel(taus):
        stacks.append(np.array(taus))
        return _frame_grams(taus)

    monkeypatch.setattr(hodge, "_frame_grams", kernel)
    check()
    stencil = max(stacks, key=len)
    stencil = stencil.reshape(len(stencil), -1)
    assert len(np.unique(stencil, axis=0)) == len(stencil)
    assert sum(map(len, stacks)) == points


def test_kahler_einstein_richardson_consistency():
    samples = [SiegelPoint.scaled_identity(2)]
    lam_h = kahler_einstein_check(samples, h=1e-3)["lambda"][0]
    lam_h2 = kahler_einstein_check(samples, h=5e-4)["lambda"][0]
    assert abs(lam_h - lam_h2) <= 1e-4


def test_kahler_einstein_step_guard():
    with pytest.raises(ValueError):
        kahler_einstein_check([SiegelPoint.scaled_identity(1)], h=1e-7)
    with pytest.raises(ValueError):
        kahler_einstein_check([SiegelPoint.scaled_identity(1)], h=0.5)


def test_kernel_checks_every_point():
    good = 1j * np.eye(2)
    with pytest.raises(ValueError, match="positive definite"):
        _frame_grams(np.array([good, good, -good]))
    with pytest.raises(ValueError, match="ill-conditioned"):
        _frame_grams(np.array([good, 1e-9 * good]))


def test_kahler_einstein_stencil_leaves_siegel_space():
    # the -ih legs of the stencil at Im tau = 5e-3 I have Im tau < 0
    with pytest.raises(ValueError):
        kahler_einstein_check([SiegelPoint.scaled_identity(2, 5e-3)], h=1e-2)


def test_curvature_step_guard():
    for h in (1e-12, 0.5):
        with pytest.raises(ValueError):
            higgs_curvature_identity_check(SiegelPoint.scaled_identity(2), h=h)


def test_curvature_identity():
    report = higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))
    assert report["curvature_residual"] <= 1e-3
    assert report["sym_square_residual"] <= 1e-10
    assert report["pass"] is True


def test_curvature_report_measures_what_can_fail():
    report = higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))
    assert set(report) == {"curvature_residual", "sym_square_residual", "pass"}


def test_curvature_cost_guard():
    with pytest.raises(ValueError):
        higgs_curvature_identity_check(SiegelPoint.scaled_identity(3))


def test_decomposition_condition_guard():
    tau = SiegelPoint.scaled_identity(2)
    st = HodgeStructureW1(2, borel_embed(tau))
    a, b = st.decompose(st.F1.basis[:, 0])
    assert np.allclose(a, [1, 0]) and np.allclose(b, [0, 0])
    with pytest.raises(ValueError, match="ill-conditioned"):
        HodgeStructureW1(2, borel_embed(SiegelPoint.scaled_identity(2, 1e-9)))


def _split_refused(tau):
    """Whether the kernel and HodgeStructureW1 refuse tau, as a pair."""
    refused = []
    for build in (lambda: _frame_grams(tau.tau[None]), lambda: HodgeStructureW1.from_tau(tau)):
        try:
            build()
        except ValueError as err:
            assert "ill-conditioned" in str(err)
            refused.append(True)
        else:
            refused.append(False)
    return tuple(refused)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_split_guard_refuses_every_point_the_condition_number_refuses(g):
    # ||R||_F ||R^{-1}||_F >= cond_2(R), so the Frobenius guard refuses at least what an SVD refused
    rng = np.random.default_rng(100 + g)
    x = rng.standard_normal((g, g))
    seen = set()
    for real in (np.zeros((g, g)), (x + x.T) / 2):
        for t in np.logspace(-12, -4, 41):
            tau = SiegelPoint(g, real + 1j * t * np.eye(g))
            f = borel_embed(tau).basis
            refused = _split_refused(tau)
            assert refused[0] == refused[1]
            if np.linalg.cond(np.hstack([f.real, f.imag])) > hodge.DECOMPOSITION_COND_LIMIT:
                assert refused[0]
            seen.add(refused[0])
    assert seen == {True, False}


def test_split_guard_edge_at_genus_two():
    # 1.5e-8 i I has cond_2 below the limit but its Frobenius product above it: newly refused
    assert _split_refused(SiegelPoint.scaled_identity(2, 1.5e-8)) == (True, True)
    assert _split_refused(SiegelPoint.scaled_identity(2, 3e-8)) == (False, False)


# --- the verdicts can fail ------------------------------------------------------
# Each perturbation moves one measurement past its bound; the bounds stay as
# they are.  i I is the first sample of every run, and every perturbed metric
# keeps its value there.


def _lambda_drift():
    # c * gmat scales lambda by 1 / c and keeps lambda * gmat and d(omega)
    calls = itertools.count()
    return "hodge_metric_matrix", lambda tau: hodge_metric_matrix(tau) * (1 + 0.01 * next(calls))


def _shear():
    # (I + Re(tau_00 - i) N) M with N nilpotent keeps det M, so Ricci and
    # lambda hold, while d/dz_0 of row 1 gains a term that d/dz_1 of row 0 lacks
    def kernel(taus, dirs):
        metrics = _metric_stack(taus, dirs)
        shear = np.zeros((len(dirs), len(dirs)))
        shear[1, 0] = 1e-2
        return metrics + (taus[:, 0, 0] - 1j).real[:, None, None] * (shear @ metrics)
    return "_metric_stack", kernel


def _conformal(name, kernel):
    # exp(|tau_00 - i|^2 / 10) adds a curvature term; at i I it changes neither
    # the value nor the first derivatives
    def perturbed(taus, *rest):
        return kernel(taus, *rest) * np.exp(np.abs(taus[:, 0, 0] - 1j) ** 2 / 10)[:, None, None]
    return lambda: (name, perturbed)


def _spread(report):
    return (max(report["lambda"]) - min(report["lambda"])) / abs(report["lambda"][0])


@pytest.mark.parametrize("perturb, check, measured, bound, argv", [
    (_lambda_drift,
     lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(1j, 2j)]),
     _spread, hodge.LAMBDA_SPREAD_BOUND, ["einstein-check"]),
    (_shear, lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]),
     lambda r: r["dw_residual"], hodge.DW_BOUND, ["einstein-check", "--points", "1"]),
    (_conformal("_metric_stack", _metric_stack),
     lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]),
     lambda r: r["einstein_residual"], hodge.EINSTEIN_BOUND, ["einstein-check", "--points", "1"]),
    (_conformal("_frame_grams", _frame_grams),
     lambda: higgs_curvature_identity_check(SiegelPoint.scaled_identity(2)),
     lambda r: r["curvature_residual"], hodge.CURVATURE_BOUND, ["curvature-check"]),
], ids=["lambda-spread", "d-omega", "einstein-residual", "curvature-residual"])
def test_verdict_fails_when_a_measurement_exceeds_its_bound(
        capsys, monkeypatch, perturb, check, measured, bound, argv):
    assert check()["pass"] is True
    monkeypatch.setattr(hodge, *perturb())
    report = check()
    assert measured(report) > bound
    assert report["pass"] is False
    assert main(["--seed", "1"] + argv) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
