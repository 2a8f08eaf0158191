import itertools
import json
import tracemalloc
from functools import lru_cache
from unittest import mock

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
    _grams_metric,
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
    for tau in taus:
        bundle, metric = _reference_grams(tau)
        grams = _frame_grams(tau.tau)
        assert np.max(np.abs(grams - bundle)) <= 1e-12 * np.max(np.abs(bundle))
        for got in (_grams_metric(grams, dirs), hodge_metric_matrix(tau)):
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


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5])
def test_metric_contraction_matches_the_einsum_reference(g):
    rng = np.random.default_rng(80 + g)
    taus = [random_siegel_point(g, rng).tau for _ in range(4)]
    basis = np.array([x.X for x in tangent_basis(g)])
    random_dirs = np.array([random_tangent(g, rng).X for _ in range(3)])
    for tau in taus:
        grams = _frame_grams(tau)
        frame = grams[:g, :g]
        frame_inv = np.linalg.inv((frame + frame.conj().T) / 2)
        for dirs in (basis, random_dirs):
            out = np.einsum("kba,bc,lcd,da->kl", dirs, grams[g:, g:], dirs.conj(), frame_inv.conj())
            expected = (out + out.conj().T) / 2
            got = _grams_metric(grams, dirs)
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


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
    log_det = np.array([np.linalg.slogdet(_grams_metric(_frame_grams(point), dirs))[1]
                        for point in points.reshape(-1, tau.g, tau.g)])
    d_dz, d_dzbar = np.array([1, -1, -1j, 1j]) / 4, np.array([1, -1, 1j, -1j]) / 4
    return np.einsum("abst,s,t->ab", log_det.reshape(m, m, 4, 4), d_dz, d_dzbar) / h**2


@pytest.mark.parametrize("g", [1, 2, 3])
def test_ricci_trace_matches_the_log_det_reference(g):
    # the jets' Ricci form against the finite-difference reference, within its O(h^2) truncation error
    rng = np.random.default_rng(60 + g)
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]:
        jet = _frame_grams(hodge._tau_jet(tau.tau))
        omega = hodge._chern_curvature(_grams_metric(jet, hodge._basis_stack(g)))
        ricci, reference = -np.trace(omega, axis1=-2, axis2=-1), _log_det_ricci(tau)
        assert np.max(np.abs(ricci - reference)) <= 1e-5 * np.max(np.abs(reference))


@pytest.mark.parametrize("g", [1, 2, 3])
def test_jet_value_part_is_the_plain_kernel_byte_for_byte(g):
    rng = np.random.default_rng(70 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]:
        jet, plain = _frame_grams(hodge._tau_jet(tau.tau)), _frame_grams(tau.tau)
        assert jet.v.tobytes() == plain.tobytes()
        assert _grams_metric(jet, dirs).v.tobytes() == _grams_metric(plain, dirs).tobytes()
        assert _grams_metric(plain, dirs).tobytes() == hodge_metric_matrix(tau).tobytes()


@pytest.mark.parametrize("g", [1, 2, 3])
def test_jet_first_parts_match_central_differences_of_the_plain_kernel(g):
    # d/dz = (d/dx - i d/dy) / 2 and d/dzbar = (d/dx + i d/dy) / 2 along each X_c, by central
    # differences at step h: the s parts are the former and the t parts the latter
    rng = np.random.default_rng(90 + g)
    dirs = np.array([x.X for x in tangent_basis(g)])
    taus = [SiegelPoint.scaled_identity(g).tau] + [random_siegel_point(g, rng).tau for _ in range(2)]
    h = 1e-5
    for kernel, tau in itertools.product((_frame_grams, lambda t: _grams_metric(_frame_grams(t), dirs)), taus):
        jet = kernel(hodge._tau_jet(tau))
        scale = np.max(np.abs(jet.v))
        for c, x in enumerate(dirs):
            dx = (kernel(tau + h * x) - kernel(tau - h * x)) / (2 * h)
            dy = (kernel(tau + 1j * h * x) - kernel(tau - 1j * h * x)) / (2 * h)
            assert np.max(np.abs(jet.s[c] - (dx - 1j * dy) / 2)) <= 1e-8 * scale
            assert np.max(np.abs(jet.t[c] - (dx + 1j * dy) / 2)) <= 1e-8 * scale


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_curvature_identity_holds_to_rounding_at_genus_1_to_4(g):
    rng = np.random.default_rng(110 + g)
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(2)]:
        report = higgs_curvature_identity_check(tau)
        assert report["curvature_residual"] <= hodge.CURVATURE_BOUND
        assert report["pass"] is True


# --- one frame Gram per point and kind -------------------------------------------


def _entries(tau, x, y):
    """The four single-point entries at tau, each as a thunk of its bytes."""
    return [lambda: json.dumps(kahler_einstein_check([tau])).encode(),
            lambda: json.dumps(higgs_curvature_identity_check(tau)).encode(),
            lambda: hodge_metric_matrix(tau).tobytes(),
            lambda: np.complex128(hodge_metric_tangent(tau, x, y)).tobytes()]


@pytest.mark.parametrize("g", [1, 2, 3, 4])
def test_cached_entries_are_byte_identical_to_cold_ones(g):
    rng = np.random.default_rng(130 + g)
    for tau in [SiegelPoint.scaled_identity(g)] + [random_siegel_point(g, rng) for _ in range(3)]:
        entries = _entries(tau, random_tangent(g, rng), random_tangent(g, rng))
        cold = []
        for entry in entries:
            hodge._point_grams.cache_clear()
            cold.append(entry())
        for entry in entries:      # fill the cache with the point's jet and plain Gram
            entry()
        info = hodge._point_grams.cache_info()
        assert [entry() for entry in entries] == cold
        assert hodge._point_grams.cache_info().misses == info.misses       # every Gram read warm


def test_the_checks_at_one_point_build_one_jet_and_one_plain_gram():
    # the Einstein check, the Hodge metric along each coordinate direction and the curvature
    # check at one point, as a period-geometry op runs them
    tau = random_siegel_point(2, np.random.default_rng(140))
    hodge._point_grams.cache_clear()
    with mock.patch.object(hodge, "_frame_grams", wraps=_frame_grams) as kernel:
        kahler_einstein_check([tau])
        for x in tangent_basis(2):
            hodge_metric_tangent(tau, x, x)
        higgs_curvature_identity_check(tau)
    assert [isinstance(call.args[0], hodge._Jet) for call in kernel.call_args_list] == [True, False]


def test_cached_grams_and_memos_are_read_only():
    tau = SiegelPoint.scaled_identity(2)
    kahler_einstein_check([tau])
    plain, jet = (hodge._point_grams(2, tau.tau.tobytes(), kind) for kind in (False, True))
    for array in (plain, jet.v, jet.d, hodge._basis_stack(2), hodge._conj_swap(3)):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 0


def test_a_point_one_ulp_away_gets_its_own_grams():
    tau = random_siegel_point(2, np.random.default_rng(150))
    near = tau.tau.copy()
    near[0, 0] = complex(near[0, 0].real, np.nextafter(near[0, 0].imag, 2.0))
    moved = SiegelPoint(2, near)
    hodge_metric_matrix(tau)
    misses = hodge._point_grams.cache_info().misses
    got = hodge_metric_matrix(moved)
    assert hodge._point_grams.cache_info().misses == misses + 1
    assert got.tobytes() == _grams_metric(_frame_grams(near), hodge._basis_stack(2)).tobytes()


def test_a_point_that_raises_caches_nothing():
    hodge._point_grams.cache_clear()
    ill, flipped = SiegelPoint.scaled_identity(2, 1e-9), (-1j * np.eye(2)).tobytes()
    for _ in range(2):      # nothing is cached by a raising call, so the second raises too
        with pytest.raises(ValueError, match="ill-conditioned"):
            hodge_metric_matrix(ill)
        with pytest.raises(ValueError, match="ill-conditioned"):
            kahler_einstein_check([ill])
        for jet in (False, True):
            with pytest.raises(ValueError, match="positive definite"):
                hodge._point_grams(2, flipped, jet)
    assert hodge._point_grams.cache_info().currsize == 0


@pytest.mark.parametrize("m", [1, 3, 6])
def test_jet_conjugation_swaps_the_parts_and_undoes_itself(m):
    rng = np.random.default_rng(160 + m)
    shape = (m * (m + 2), 2, 3, 3)
    jet = hodge._Jet(rng.standard_normal(shape[1:]) + 1j * rng.standard_normal(shape[1:]),
                     rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    once, twice = jet.conj(), jet.conj().conj()
    assert once.s.tobytes() == jet.t.conj().tobytes() and once.t.tobytes() == jet.s.conj().tobytes()
    assert once.st.tobytes() == jet.st.swapaxes(0, 1).conj().tobytes()
    assert twice.v.tobytes() == jet.v.tobytes() and twice.d.tobytes() == jet.d.tobytes()


def test_metric_matrix_takes_a_genus_past_the_jet_limit():
    past = hodge.JET_GENUS_LIMIT + 1
    tau = random_siegel_point(past, np.random.default_rng(170))
    basis = tangent_basis(past)
    tracemalloc.start()
    try:
        got = hodge_metric_matrix(tau)
        assert tracemalloc.get_traced_memory()[1] < 4 * 2**20
    finally:
        tracemalloc.stop()
    expected = np.array([[hodge_metric_tangent(tau, x, y) for y in basis] for x in basis])
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    # two directions past the limit are taken too
    x, y = basis[:2]
    pair = _grams_metric(_frame_grams(tau.tau), np.array([x.X, y.X]))[0, 1]
    assert hodge_metric_tangent(tau, x, y) == pair


def test_kernel_checks_every_point():
    good = 1j * np.eye(2)
    for point in (lambda tau: tau, hodge._tau_jet):
        _frame_grams(point(good))
        with pytest.raises(ValueError, match="positive definite"):
            _frame_grams(point(-good))
        with pytest.raises(ValueError, match="ill-conditioned"):
            _frame_grams(point(1e-9 * good))


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
    monkeypatch.setattr(hodge, "_grams_metric", kernel)
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
    jet = hodge._tau_jet(SiegelPoint.scaled_identity(hodge.JET_GENUS_LIMIT).tau)
    assert jet.s.tobytes() == hodge._basis_stack(hodge.JET_GENUS_LIMIT).tobytes()


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
    for build in (lambda: _frame_grams(tau.tau), lambda: HodgeStructureW1.from_tau(tau)):
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
# keeps its value there.  The checks read the metric at a point through
# _point_metric and the frame Gram through _point_grams, which calls _frame_grams.


def _point_tau(tau, jet):
    """The point that the point cache builds its Gram from: tau (g, g), or its jet."""
    return hodge._tau_jet(tau.tau) if jet else tau.tau


def _lambda_drift():
    # c * gmat scales lambda by 1 / c and keeps lambda * gmat and d(omega)
    calls = itertools.count()
    return "hodge_metric_matrix", lambda tau: hodge_metric_matrix(tau) * (1 + 0.01 * next(calls))


def _shear():
    # (I + Re(tau_00 - i) N) M with N nilpotent keeps det M, so Ricci and
    # lambda hold, while d/dz_0 of row 1 gains a term that d/dz_1 of row 0 lacks;
    # on the jets the checks pass in, the factor Re(tau_00 - i) is a jet too
    point_metric = hodge._point_metric

    def kernel(tau, dirs, jet):
        metrics = point_metric(tau, dirs, jet)
        shear = np.zeros((len(dirs), len(dirs)))
        shear[1, 0] = 1e-2
        return metrics + (_point_tau(tau, jet)[:1, :1] + -1j).real * (shear @ metrics)
    return "_point_metric", kernel


def _conformal(name, kernel, scale=0.1):
    # 1 + scale |tau_00 - i|^2, a jet product on jets, adds a curvature term; at i I it
    # changes neither the value nor the first derivatives.  _frame_grams takes the point
    # (g, g), _point_metric the point, its directions and whether to take the jet
    def perturbed(*args):
        u = (args[0] if len(args) == 1 else _point_tau(args[0], args[2]))[:1, :1] + -1j
        return kernel(*args) * (u * u.conj() * scale + 1)
    return lambda: (name, perturbed)


def _spread(report):
    return (max(report["lambda"]) - min(report["lambda"])) / abs(report["lambda"][0])


@pytest.mark.parametrize("perturb, check, measured, bound, argv", [
    (_lambda_drift,
     lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2), SiegelPoint.diagonal(1j, 2j)]),
     _spread, hodge.LAMBDA_SPREAD_BOUND, ["einstein-check"]),
    (_shear, lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]),
     lambda r: r["dw_residual"], hodge.DW_BOUND, ["einstein-check", "--points", "1"]),
    (_conformal("_point_metric", hodge._point_metric),
     lambda: kahler_einstein_check([SiegelPoint.scaled_identity(2)]),
     lambda r: r["einstein_residual"], hodge.EINSTEIN_BOUND, ["einstein-check", "--points", "1"]),
    (_conformal("_frame_grams", _frame_grams),
     lambda: higgs_curvature_identity_check(SiegelPoint.scaled_identity(2)),
     lambda r: r["curvature_residual"], hodge.CURVATURE_BOUND, ["curvature-check"]),
    # 1e-5 times the conformal term: within the finite-difference bounds of 1e-3, past these
    (_conformal("_point_metric", hodge._point_metric, 1e-6),
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
    # the passing check cached i I's Grams: a fresh point cache, dropped with the patches, makes the
    # perturbed checks build them again and keeps their Grams from the checks that follow
    fresh = lru_cache(**hodge._point_grams.cache_parameters())(hodge._point_grams.__wrapped__)
    monkeypatch.setattr(hodge, "_point_grams", fresh)
    report = check()
    assert measured(report) > bound
    assert report["pass"] is False
    assert main(["--seed", "1"] + argv) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
