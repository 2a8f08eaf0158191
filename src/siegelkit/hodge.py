"""Weight-one Hodge structures, the Hodge metric, and curvature verifications.

The metric on tangent directions is obtained by pushing a direction through
the derivative of the Hodge filtration (the Higgs map) and taking the inner
product psi(C u, conj v) induced by the polarization and the Weil operator C.
One private kernel evaluates these pairings for a whole stack of points tau:
a single batched solve against [F, conj F], F = (tau; I), gives both the
Weil operator and the H^{0,1}-components that the Higgs map needs.

Everything that involves derivatives of the metric is verified by central
finite differences.  Each stencil (the +-h and +-ih legs, the 4 x 4 mixed
legs at h and h/2, the nested curvature stencil) is built as one stacked
array of shifted tau, evaluated in one kernel call and combined with fixed
weights; every stencil point is checked like a base point.  A Richardson
step-halving comparison guards against roundoff-dominated steps.
"""

from dataclasses import dataclass

import numpy as np

from .siegelspace import (
    SiegelPoint,
    TangentDirection,
    PeriodPoint,
    borel_embed,
    j_matrix_float,
    tangent_basis,
)

DECOMPOSITION_COND_LIMIT = 1e8

# the bounds behind the "pass" verdicts of the Einstein and curvature checks
LAMBDA_SPREAD_BOUND = 1e-3
DW_BOUND = 1e-4
EINSTEIN_BOUND = 1e-3
CURVATURE_BOUND = 1e-3

# central differences along a coordinate direction X: values at tau + c h X for
# c in _LEGS, weighted by _D_DZ (resp. _D_DZBAR) and divided by h, give
# d/dz = (d/dx - i d/dy) / 2 (resp. d/dzbar = (d/dx + i d/dy) / 2)
_LEGS = np.array([1, -1, 1j, -1j])
_D_DZ = np.array([1, -1, -1j, 1j]) / 4
_D_DZBAR = np.array([1, -1, 1j, -1j]) / 4


class StepSizeError(ArithmeticError):
    """Raised when step halving shows a finite-difference step is unusable."""


@dataclass(frozen=True)
class HodgeStructureW1:
    """A weight-one polarized Hodge structure V_C = F^1 + conj(F^1)."""

    g: int
    F1: PeriodPoint

    def __post_init__(self):
        stacked = np.hstack([self.F1.basis, self.F1.basis.conj()])
        if np.linalg.cond(stacked) > DECOMPOSITION_COND_LIMIT:
            raise ValueError("F^1 and conj(F^1) do not split V_C (ill-conditioned)")

    @classmethod
    def from_tau(cls, tau: SiegelPoint):
        return cls(tau.g, borel_embed(tau))

    def decompose(self, v):
        """Coefficients (a, b) with v = F a + conj(F) b."""
        f = self.F1.basis
        stacked = np.hstack([f, f.conj()])
        ab = np.linalg.solve(stacked, np.asarray(v, dtype=complex))
        return ab[: self.g], ab[self.g:]

    def weil_operator(self, v):
        """C v: multiplication by i on the F^1 part, -i on the conjugate part."""
        a, b = self.decompose(v)
        f = self.F1.basis
        return 1j * (f @ a) - 1j * (f.conj() @ b)


def hodge_inner(structure: HodgeStructureW1, u, v) -> complex:
    """The polarization-induced metric psi(C u, conj(v))."""
    cu = structure.weil_operator(u)
    j = j_matrix_float(structure.g)
    return complex(cu @ j @ np.asarray(v, dtype=complex).conj())


@dataclass(frozen=True)
class HiggsElement:
    """Image of a tangent direction in Hom(H^{1,0}, H^{0,1}).

    ``matrix`` is expressed against the frame pair that pairs the codomain
    back through the polarization, which renders the Sym^2 symmetry of the
    tangent embedding as literal matrix symmetry.
    """

    g: int
    matrix: np.ndarray

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.T)))


def kodaira_spencer(tau: SiegelPoint, x: TangentDirection) -> HiggsElement:
    """Derivative of the Hodge filtration along X, as a Higgs element.

    d/dt F^1_{tau + tX} at t = 0 has column derivatives (X; 0); their
    H^{0,1}-components B say that the map sends F a to conj(F) (B a).
    """
    structure = HodgeStructureW1.from_tau(tau)
    _, b = structure.decompose(np.vstack([x.X, np.zeros((tau.g, tau.g))]))
    f = structure.F1.basis
    image = f.conj() @ b                    # columns theta(X) f_j in V_C
    s = image.T @ j_matrix_float(tau.g) @ f  # psi(theta(X) f_j, f_k)
    return HiggsElement(tau.g, s)


# --- the stacked kernel --------------------------------------------------------


def _frame_grams(taus):
    """Gram matrices under psi(C u, conj v) of the frame (F, conj(F) B), stacked.

    ``taus`` has shape (P, g, g).  F = (tau; I) spans E^{1,0} = F^1; B holds
    the H^{0,1}-components of the first g coordinate vectors, so conj(F) B
    represents E^{0,1} = V/F^1, and conj(F) B X is the Higgs image of F along
    X.  One batched solve against [F, conj F] gives B and the Weil operator
    C = [F, conj F] diag(i, -i) [F, conj F]^{-1}.  Every point is checked for
    Im tau > 0 and for a well-conditioned splitting V_C = F^1 + conj(F^1).
    """
    taus = np.asarray(taus, dtype=complex)
    g = taus.shape[-1]
    if np.min(np.linalg.eigvalsh(taus.imag)) <= 0:
        raise ValueError("Im(tau) must be positive definite at every point")
    f = np.concatenate([taus, np.broadcast_to(np.eye(g), taus.shape)], axis=-2)
    split = np.concatenate([f, f.conj()], axis=-1)
    if np.max(np.linalg.cond(split)) > DECOMPOSITION_COND_LIMIT:
        raise ValueError("F^1 and conj(F^1) do not split V_C (ill-conditioned)")
    coeffs = np.linalg.inv(split)
    weil = split @ (np.repeat([1j, -1j], g)[:, None] * coeffs)
    frame = np.concatenate([f, f.conj() @ coeffs[:, g:, :g]], axis=-1)
    return (weil @ frame).swapaxes(-1, -2) @ j_matrix_float(g) @ frame.conj()


def _metric_stack(taus, dirs):
    """Hodge metric matrices (P, m, m) against the directions ``dirs`` (m, g, g).

    Entry (k, l) sums the pairings of the Higgs images of an H-orthonormal
    frame F S of F^1 along X_k and X_l.  With G the Gram matrix of F and Q
    that of conj(F) B, and S S* = G^{-1}, it is Tr(t(X_k) Q conj(X_l) conj(G^{-1})).
    """
    g = dirs.shape[-1]
    grams = _frame_grams(taus)
    frame = grams[:, :g, :g]
    frame_inv = np.linalg.inv((frame + frame.conj().swapaxes(-1, -2)) / 2)
    out = np.einsum("kba,pbc,lcd,pda->pkl", dirs, grams[:, g:, g:], dirs.conj(), frame_inv.conj())
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _basis_stack(g):
    return np.array([x.X for x in tangent_basis(g)])


def _legs(coeffs, dirs):
    """Offsets c X for each direction X (axis 0) and coefficient c (axis 1)."""
    return coeffs[None, :, None, None] * dirs[:, None]


def _check_step(h):
    if not (1e-6 <= h <= 1e-2):
        raise ValueError("step must lie in [1e-6, 1e-2]")


def hodge_metric_tangent(tau: SiegelPoint, x: TangentDirection, y: TangentDirection) -> complex:
    """Inner product of Higgs images, in the metric induced on Hom(H^{1,0}, H^{0,1})."""
    return complex(_metric_stack(tau.tau[None], np.array([x.X, y.X]))[0, 0, 1])


def hodge_metric_matrix(tau: SiegelPoint):
    """Matrix of the induced metric against the coordinate tangent directions."""
    return _metric_stack(tau.tau[None], _basis_stack(tau.g))[0]


def kahler_einstein_check(tau_samples, h=1e-3):
    """Closedness of the Kaehler form and the Einstein constant, by differences.

    Returns a report with the worst d(omega) residual, the per-sample Einstein
    constants (from Ricci = -lambda * omega), the worst Einstein residual, and
    the verdict "pass": all three within LAMBDA_SPREAD_BOUND (relative spread
    of the constants), DW_BOUND and EINSTEIN_BOUND.  Raises StepSizeError when
    halving the step moves the constants by more than the expected truncation
    behaviour allows.
    """
    _check_step(h)
    if not tau_samples:
        raise ValueError("the Einstein check needs at least one sample point")
    lambdas = []
    dw_residual = 0.0
    einstein_residual = 0.0
    for tau in tau_samples:
        dirs = _basis_stack(tau.g)
        m, g = len(dirs), tau.g
        steps = np.array([h, h / 2])
        legs = np.array([_legs(s * _LEGS, dirs) for s in steps])   # (step, X, leg, g, g)
        # d(omega) needs the legs along each X_a at h; Ricci = d^2 log det /
        # (dz_a dzbar_b) needs the 4 x 4 legs along X_a and X_b at h and h/2.
        # Coinciding real legs collapse to a step-2h second difference, which
        # is still second-order correct.
        first = tau.tau + legs[0]
        mixed = tau.tau + legs[:, :, None, :, None] + legs[:, None, :, None, :]
        metrics = _metric_stack(np.concatenate([first.reshape(-1, g, g), mixed.reshape(-1, g, g)]), dirs)

        # d(omega) = 0 reduces to the symmetry of holomorphic derivatives
        grads = np.einsum("cpab,p->cab", metrics[: 4 * m].reshape(m, 4, m, m), _D_DZ) / h
        dw_residual = max(dw_residual, float(np.max(np.abs(grads - grads.swapaxes(0, 1)))))

        log_det = np.linalg.slogdet(metrics[4 * m:])[1].reshape(2, m, m, 4, 4)
        ric = np.einsum("sabpq,p,q->sab", log_det, _D_DZ, _D_DZBAR) / (steps**2)[:, None, None]
        gmat = hodge_metric_matrix(tau)
        lam, lam_half = np.trace(np.linalg.solve(gmat, ric), axis1=1, axis2=2).real / m
        if abs(lam - lam_half) > 0.05 * max(abs(lam), 1e-12):
            raise StepSizeError("Richardson disagreement: step too small or too large")
        lambdas.append(float(lam))
        einstein_residual = max(einstein_residual, float(np.max(np.abs(ric[0] - lam * gmat))))
    spread = (max(lambdas) - min(lambdas)) / abs(lambdas[0])
    return {
        "lambda": lambdas,
        "dw_residual": dw_residual,
        "einstein_residual": einstein_residual,
        "pass": spread <= LAMBDA_SPREAD_BOUND and dw_residual <= DW_BOUND
        and einstein_residual <= EINSTEIN_BOUND,
    }


# --- curvature of the Hodge bundle -------------------------------------------


def higgs_curvature_identity_check(tau: SiegelPoint, h=1e-3):
    """Check Theta(E, H) = -(theta theta* + theta* theta) at a point, g <= 2.

    E = E^{1,0} + E^{0,1} carries the frame of _frame_grams: the filtration
    frame f_j and, for the quotient V/F^1, the H^{0,1}-components of the
    first g coordinate vectors.  The curvature is assembled from finite
    differences of its Gram matrix; the right-hand side is algebraic in the
    Higgs matrices.  The report also measures how far the Higgs matrices are
    from symmetric (the Sym^2 embedding of the tangent bundle).  The verdict
    "pass" is the curvature residual within CURVATURE_BOUND.

    The companion identity theta ^ theta = 0 is not measured: in weight one
    it holds by Hodge type.  theta maps E^{1,0} to E^{0,1} and kills E^{0,1},
    so theta theta = 0 by the block shape of the Higgs matrices, and
    theta* theta* = G^{-1} (theta theta)^* G with it; a residual for either
    could not fail.
    """
    if tau.g > 2:
        raise ValueError("curvature check is guarded to g <= 2")
    _check_step(h)
    g = tau.g
    dirs = _basis_stack(g)
    m = len(dirs)

    # Theta_{gamma delta} = -dbar_delta(G^{-1} d_gamma G): the legs along X_delta,
    # and at each of them the point itself and the legs along X_gamma
    outer = _legs(h * _LEGS, dirs)
    inner = _legs(h * np.concatenate([[0], _LEGS]), dirs)
    stencil = tau.tau + outer[None, :, :, None] + inner[:, None, None, :]
    grams = _frame_grams(stencil.reshape(-1, g, g)).reshape(m, m, 4, 5, 2 * g, 2 * g)
    d_gram = np.einsum("cdqpij,p->cdqij", grams[:, :, :, 1:], _D_DZ) / h
    connection = np.linalg.solve(grams[:, :, :, 0], d_gram)
    curv = -np.einsum("cdqij,q->cdij", connection, _D_DZBAR) / h

    theta = np.zeros((m, 2 * g, 2 * g), dtype=complex)
    theta[:, g:, :g] = dirs        # quotient-frame matrix of theta(X) is X itself
    # adjoint under <u, v> = t(u) G conj(v)
    gbar = _frame_grams(tau.tau[None])[0].conj()
    theta_star = np.linalg.solve(gbar, theta.conj().swapaxes(-1, -2) @ gbar)
    rhs = -(theta[:, None] @ theta_star[None] - theta_star[None] @ theta[:, None])

    sym_residual = max(kodaira_spencer(tau, x).symmetry_defect() for x in tangent_basis(g))
    curvature_residual = float(np.max(np.abs(curv - rhs)))
    return {
        "curvature_residual": curvature_residual,
        "sym_square_residual": sym_residual,
        "pass": curvature_residual <= CURVATURE_BOUND,
    }
