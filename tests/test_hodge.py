import itertools
import json
import tracemalloc

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


@pytest.mark.parametrize("g", [1, 2, 3])
def test_einstein_constant_at_i_is_g_plus_1(g):
    lam = kahler_einstein_check([SiegelPoint.scaled_identity(g)])["lambda"][0]
    assert abs(lam - (g + 1)) <= 1e-12 * (g + 1)


def test_kahler_einstein_g1_closed_form():
    report = kahler_einstein_check([SiegelPoint.scaled_identity(1),
                                    SiegelPoint.scaled_identity(1, 1.7)])
    for lam in report["lambda"]:
        assert abs(lam - 2) <= 2e-12
    assert report["dw_residual"] <= hodge.DW_BOUND
    assert report["pass"] is True


def test_kahler_einstein_g2_consistency():
    samples = [SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(1j, 2j)]
    report = kahler_einstein_check(samples)
    lams = report["lambda"]
    assert abs(lams[0] - lams[1]) <= hodge.LAMBDA_SPREAD_BOUND * abs(lams[0])
    assert report["dw_residual"] <= hodge.DW_BOUND
    assert report["einstein_residual"] <= hodge.EINSTEIN_BOUND
    assert report["pass"] is True


@pytest.mark.parametrize("g", [1, 2, 3])
def test_einstein_constant_is_g_plus_1(g):
    rng = np.random.default_rng(50 + g)
    samples = [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]
    report = kahler_einstein_check(samples)
    for lam in report["lambda"]:
        assert abs(lam - (g + 1)) <= 1e-12 * (g + 1)
    assert report["pass"] is True


def test_einstein_check_passes_over_the_cli_seed_one_points():
    # i I and seed 1's first 199 draws, as einstein-check --points 200 takes them, down to the
    # 0.2 eigenvalue floor of Im tau in random_siegel_point
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
    # the jets' Ricci form against the finite-difference reference, within its O(h^2) truncation error
    rng = np.random.default_rng(60 + g)
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]:
        omega = hodge._chern_curvature(_metric_stack(*hodge._tau_jet(tau)))[:, :, 0]
        ricci, reference = -np.trace(omega, axis1=-2, axis2=-1), _log_det_ricci(tau)
        assert np.max(np.abs(ricci - reference)) <= 1e-5 * np.max(np.abs(reference))


def _stack_jet(taus, dirs):
    """The jet of tau + s_c X_c at every point of a stack."""
    m = len(dirs)
    seed = np.zeros((m * (m + 2),) + taus.shape, complex)
    seed[:m] = dirs[:, None]
    return hodge._Jet(taus, seed)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_jet_value_part_is_the_plain_kernel_byte_for_byte(g):
    rng = np.random.default_rng(70 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    points = [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]
    taus = np.array([tau.tau for tau in points])
    assert _frame_grams(_stack_jet(taus, dirs)).v.tobytes() == _frame_grams(taus).tobytes()
    assert _metric_stack(_stack_jet(taus, dirs), dirs).v.tobytes() == _metric_stack(taus, dirs).tobytes()
    for tau in points:
        jet, _ = hodge._tau_jet(tau)
        assert _frame_grams(jet).v.tobytes() == _frame_grams(tau.tau[None]).tobytes()
        assert _metric_stack(jet, dirs).v[0].tobytes() == hodge_metric_matrix(tau).tobytes()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_jet_first_parts_match_central_differences_of_the_plain_kernel(g):
    # d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2 along each X_c, by central
    # differences at step h: the s parts are the former and the t parts the latter
    rng = np.random.default_rng(90 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    taus = np.array([SiegelPoint.scaled_identity(g).tau] + [random_siegel_point(g, rng).tau for _ in range(2)])
    h = 1e-5
    for kernel in (_frame_grams, lambda t: _metric_stack(t, dirs)):
        jet = kernel(_stack_jet(taus, dirs))
        scale = np.max(np.abs(jet.v))
        for c, x in enumerate(dirs):
            dx = (kernel(taus + h * x) - kernel(taus - h * x)) / (2 * h)
            dy = (kernel(taus + 1j * h * x) - kernel(taus - 1j * h * x)) / (2 * h)
            assert np.max(np.abs(jet.s[c] - (dx - 1j * dy) / 2)) <= 1e-8 * scale
            assert np.max(np.abs(jet.t[c] - (dx + 1j * dy) / 2)) <= 1e-8 * scale


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_curvature_identity_holds_to_rounding_at_genus_1_to_4(g):
    rng = np.random.default_rng(110 + g)
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(2)]:
        report = higgs_curvature_identity_check(tau)
        assert report["curvature_residual"] <= hodge.CURVATURE_BOUND
        assert report["pass"] is True


def test_kernel_checks_every_point():
    good = 1j * np.eye(2)
    with pytest.raises(ValueError, match="positive definite"):
        _frame_grams(np.array([good, good, -good]))
    with pytest.raises(ValueError, match="ill-conditioned"):
        _frame_grams(np.array([good, 1e-9 * good]))


def test_curvature_identity():
    report = higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))
    assert report["curvature_residual"] <= 1e-3
    assert report["sym_square_residual"] <= 1e-10
    assert report["pass"] is True


def test_curvature_report_measures_what_can_fail():
    report = higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))
    assert set(report) == {"curvature_residual", "sym_square_residual", "pass"}


@pytest.mark.parametrize("check, argv", [
    (lambda tau: kahler_einstein_check([tau]), ["einstein-check"]),
    (higgs_curvature_identity_check, ["curvature-check"]),
], ids=["einstein", "curvature"])
def test_genus_guard_refuses_before_any_jet_is_built(capsys, monkeypatch, check, argv):
    def kernel(*args):
        raise AssertionError("the genus guard must fire before any kernel runs")

    monkeypatch.setattr(hodge, "_frame_grams", kernel)
    monkeypatch.setattr(hodge, "_metric_stack", kernel)
    past = hodge.JET_GENUS_LIMIT + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"g <= {hodge.JET_GENUS_LIMIT}"):
            check(SiegelPoint.scaled_identity(past))
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    assert main(argv + ["--genus", str(past)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"g <= {hodge.JET_GENUS_LIMIT}" in json.loads(captured.err)["error"]
    # the limit itself is taken: its seed is built
    jet, dirs = hodge._tau_jet(SiegelPoint.scaled_identity(hodge.JET_GENUS_LIMIT))
    assert jet.s.tobytes() == dirs[:, None].tobytes()


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
    # lambda hold, while d/dz_0 of row 1 gains a term that d/dz_1 of row 0 lacks;
    # on the jets the checks pass in, the factor Re(tau_00 - i) is a jet too
    def kernel(taus, dirs):
        metrics = _metric_stack(taus, dirs)
        shear = np.zeros((len(dirs), len(dirs)))
        shear[1, 0] = 1e-2
        return metrics + (taus[:, 0, 0] + -1j).real[:, None, None] * (shear @ metrics)
    return "_metric_stack", kernel


def _conformal(name, kernel, scale=0.1):
    # 1 + scale |tau_00 - i|^2, a jet product on jets, adds a curvature term; at i I it
    # changes neither the value nor the first derivatives
    def perturbed(taus, *rest):
        u = taus[:, 0, 0] + -1j
        return kernel(taus, *rest) * (u * u.conj() * scale + 1)[:, None, None]
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
    # 1e-5 times the conformal term: within the finite-difference bounds of 1e-3, past these
    (_conformal("_metric_stack", _metric_stack, 1e-6),
     lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]),
     lambda r: r["einstein_residual"], hodge.EINSTEIN_BOUND, ["einstein-check", "--points", "1"]),
    (_conformal("_frame_grams", _frame_grams, 1e-6),
     lambda: higgs_curvature_identity_check(SiegelPoint.scaled_identity(2)),
     lambda r: r["curvature_residual"], hodge.CURVATURE_BOUND, ["curvature-check"]),
], ids=["lambda-spread", "d-omega", "einstein-residual", "curvature-residual", "einstein-residual-small",
        "curvature-residual-small"])
def test_verdict_fails_when_a_measurement_exceeds_its_bound(
        capsys, monkeypatch, perturb, check, measured, bound, argv):
    assert check()["pass"] is True
    monkeypatch.setattr(hodge, *perturb())
    report = check()
    assert measured(report) > bound
    assert report["pass"] is False
    assert main(["--seed", "1"] + argv) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
