"""Weight-one Hodge structures, the Hodge metric, and curvature verifications.

The metric on tangent directions is obtained by pushing a direction through
the derivative of the Hodge filtration (the Higgs map) and taking the inner
product psi(C u, conj v) induced by the polarization and the Weil operator C.
One private kernel evaluates these pairings for a whole stack of points tau
from one real inverse per point: with F = (tau; I) and R = [Re F, Im F], the
unitary W = [[I, -iI], [I, iI]] / sqrt(2) gives [F, conj F]^{-1} = W R^{-1} / sqrt(2),
so R^{-1} holds the H^{0,1}-components that the Higgs map needs, and the Weil
operator is the real R t(J) R^{-1}.  The splitting V_C = F^1 + conj(F^1) is
refused when ||R||_F ||R^{-1}||_F, an upper bound for its condition number
(within a factor 2g), exceeds DECOMPOSITION_COND_LIMIT.  F = (tau; I) and
R = [[Re tau, Im tau], [I, 0]] are assembled by blocks, and J, a signed
permutation, is applied as a signed block swap, so t(J) R t(J) is exact and
no product with J is formed; the real t(J) C then acts on the complex frame as one real product
on its interleaved real and imaginary parts.  The metric against m directions
is one contraction, Tr(t(X_k) Q conj(X_l G^{-1})), of the (P, g^4) point terms
with the (g^4, m^2) direction terms.

Both curvature claims are one computation, the Chern curvature
Omega = -dbar(G^{-1} dG), on two bundles: the tangent bundle with the Hodge
metric (its Ricci form is -tr Omega) and the Hodge bundle with its frame Gram
matrix.  One central-difference stencil computes it.  Its offsets are integer
vectors in units of the least step, deduplicated by one integer sort; its
distinct points are evaluated in one kernel call, each checked like a base
point, and the curvature check reads G(tau) from its zero offset.  Each leg's
matrix is factored once for all directions around it.  A Richardson
step-halving comparison guards against roundoff-dominated steps, and the
Einstein check measures its residuals on the Richardson extrapolation
(4 X(h/2) - X(h)) / 3, free of the O(h^2) truncation error.
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
# the signs of the blocks [[-D, C], [B, -A]] of t(J) R t(J), as (row block, 1, column block, 1)
_BLOCK_SWAP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0]).reshape(2, 1, 2, 1)


class StepSizeError(ArithmeticError):
    """Raised when step halving shows a finite-difference step is unusable."""


def _split_inverse(f):
    """R = [Re F, Im F] and R^{-1}, for F single (2g, g) or stacked (P, 2g, g).

    ||R||_F ||R^{-1}||_F lies in [cond_2(R), 2g cond_2(R)], so the limit refuses every F whose
    condition number exceeds it (and a NaN, which fails the <=).
    """
    g = f.shape[-1]
    real = np.empty(f.shape[:-1] + (2 * g,))
    real[..., :g], real[..., g:] = f.real, f.imag
    inv = np.linalg.inv(real)
    frobenius = np.einsum("...ij,...ij->...", real, real) * np.einsum("...ij,...ij->...", inv, inv)
    if not np.max(frobenius) <= DECOMPOSITION_COND_LIMIT**2:
        raise ValueError("F^1 and conj(F^1) do not split V_C (ill-conditioned)")
    return real, inv


@dataclass(frozen=True)
class HodgeStructureW1:
    """A weight-one polarized Hodge structure V_C = F^1 + conj(F^1)."""

    g: int
    F1: PeriodPoint

    def __post_init__(self):
        _split_inverse(self.F1.basis)

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


def _higgs_matrices(tau: SiegelPoint, dirs):
    """Higgs element matrices (m, g, g) of the directions ``dirs`` (m, g, g), from one solve.

    d/dt F^1_{tau + tX} at t = 0 has column derivatives (X; 0); their
    H^{0,1}-components B say that the map sends F a to conj(F) (B a).
    """
    structure, g = HodgeStructureW1.from_tau(tau), tau.g
    _, b = structure.decompose(np.vstack([np.hstack(dirs), np.zeros((g, len(dirs) * g))]))
    f = structure.F1.basis
    image = f.conj() @ b                                         # columns theta(X_k) f_j in V_C
    return (image.T @ j_matrix_float(g) @ f).reshape(-1, g, g)  # psi(theta(X_k) f_j, f_l)


def kodaira_spencer(tau: SiegelPoint, x: TangentDirection) -> HiggsElement:
    """Derivative of the Hodge filtration along X, as a Higgs element."""
    return HiggsElement(tau.g, _higgs_matrices(tau, x.X[None])[0])


# --- the stacked kernel --------------------------------------------------------


def _frame_grams(taus):
    """Gram matrices under psi(C u, conj v) of the frame (F, conj(F) B), stacked.

    ``taus`` has shape (P, g, g).  F = (tau; I) spans E^{1,0} = F^1; B holds
    the H^{0,1}-components of the first g coordinate vectors, so conj(F) B
    represents E^{0,1} = V/F^1, and conj(F) B X is the Higgs image of F along
    X.  Both B = (R^{-1}[:g, :g] + i R^{-1}[g:, :g]) / 2 and the Weil operator
    C = R t(J) R^{-1} come from one real inverse of R = [Re F, Im F].  Every point
    is checked for Im tau > 0 and for a well-conditioned splitting V_C = F^1 + conj(F^1).
    """
    taus = np.asarray(taus, dtype=complex)
    p, g = len(taus), taus.shape[-1]
    if np.min(np.linalg.eigvalsh(taus.imag)) <= 0:
        raise ValueError("Im(tau) must be positive definite at every point")
    f = np.empty((p, 2 * g, g), dtype=complex)            # F = (tau; I), so R = [[Re tau, Im tau], [I, 0]]
    f[:, :g], f[:, g:] = taus, np.eye(g)
    real, inv = _split_inverse(f)
    # t(C u) J conj(v) = t(u) t(t(J) C) conj(v), and t(J) C = t(J) R t(J) R^{-1} where J is a
    # signed block swap: t(J) [[A, B], [C, D]] t(J) = [[-D, C], [B, -A]], exactly
    swapped = real.reshape(p, 2, g, 2, g)[:, ::-1, :, ::-1] * _BLOCK_SWAP_SIGNS
    j_weil = swapped.reshape(p, 2 * g, 2 * g) @ inv
    b = (inv[:, :g, :g] + 1j * inv[:, g:, :g]) / 2
    frame = np.empty((p, 2 * g, 2 * g), dtype=complex)   # [F, conj(F) B] = [[tau, conj(tau) B], [I, B]]
    frame[:, :, :g], frame[:, :g, g:], frame[:, g:, g:] = f, taus.conj() @ b, b
    # the real t(J) C acts on the interleaved real and imaginary parts of the frame: one real product
    j_weil_frame = (j_weil @ frame.view(float)).view(complex)
    return j_weil_frame.swapaxes(-1, -2) @ frame.conj()


def _metric_stack(taus, dirs):
    """Hodge metric matrices (P, m, m) against the directions ``dirs`` (m, g, g).

    Entry (k, l) sums the pairings of the Higgs images of an H-orthonormal
    frame F S of F^1 along X_k and X_l.  With G the Gram matrix of F and Q
    that of conj(F) B, and S S* = G^{-1}, it is Tr(t(X_k) Q conj(X_l G^{-1})):
    the sum over (b, c, d, a) of Q_bc conj(G^{-1})_da against X_k[b, a] conj(X_l)[c, d],
    one product of the (P, g^4) point terms with the (g^4, m^2) direction terms.
    """
    m, g = len(dirs), dirs.shape[-1]
    grams = _frame_grams(taus)
    frame = grams[:, :g, :g]
    frame_inv = np.linalg.inv((frame + frame.conj().swapaxes(-1, -2)) / 2)
    terms = np.einsum("pbc,pda->pbcda", grams[:, g:, g:], frame_inv.conj()).reshape(len(grams), -1)
    out = (terms @ np.einsum("kba,lcd->bcdakl", dirs, dirs.conj()).reshape(-1, m * m)).reshape(-1, m, m)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _basis_stack(g):
    return np.array([x.X for x in tangent_basis(g)])


def _stencil_layout(m, steps):
    """Distinct stencil offsets (real parts, then imaginary) and each row's index among them.

    Per step s the rows are the legs s a e_d, then s (a e_d + b e_c) around them (a, b in _LEGS).
    Steps are integer multiples of the least (h and h / 2 in every caller), so rows are sorted
    and deduplicated as integer vectors in units of the least step.
    """
    legs = _LEGS[:, None] * np.eye(m)[:, None]               # (d, q, m): a e_d
    around = legs[None, :, :, None] + legs[:, None, None]    # (c, d, q, p, m)
    coords = np.concatenate([legs.reshape(-1, m), around.reshape(-1, m)])
    coords = np.concatenate([coords.real, coords.imag], axis=1).astype(int)
    least = min(steps)
    ratios = np.rint(np.divide(steps, least)).astype(int)
    if np.any(least * ratios != steps):
        raise ValueError("steps must be integer multiples of the least step")
    units = np.multiply.outer(ratios, coords).reshape(-1, 2 * m)
    order = np.lexsort(units.T[::-1])
    units = units[order]
    new = np.ones(len(units), dtype=bool)
    new[1:] = (units[1:] != units[:-1]).any(axis=1)    # differs from the row before
    index = np.empty_like(order)
    index[order] = new.cumsum() - 1
    return least * units[new], index


def _chern_curvature(kernel, tau, dirs, steps):
    """G, and d_c G and Omega[c, d] = -dbar_d(G^{-1} d_c G) per step s, at tau for G = kernel.

    ``kernel`` maps points (P, g, g) to Hermitian (P, n, n).  G^{-1} d_c G is taken
    at the legs tau + s a X_d from the legs s b X_c around each (a, b in _LEGS), with one
    factorization per leg for all c; the distinct points of _stencil_layout are evaluated in
    one kernel call.  G is read at the point s (X_0 - X_0) around the leg s X_0: tau itself.
    """
    m, k = len(dirs), len(steps)
    offsets, index = _stencil_layout(m, steps)
    values = kernel(tau.tau + np.einsum("uk,kab->uab", offsets[:, :m] + 1j * offsets[:, m:], dirs))
    n = values.shape[-1]
    values = values[index].reshape(k, -1, n, n)
    at_legs = values[:, : 4 * m].reshape(k, m, 4, n, n)
    at_around = values[:, 4 * m:].reshape(k, m, m, 4, 4, n, n)
    scale = 1 / np.asarray(steps)[:, None]     # per step; Omega takes two differences, so scale^2
    d_gram = np.einsum("sdqij,sq->sdij", at_legs, _D_DZ * scale)
    d_around = np.einsum("scdqpij,p->sdqicj", at_around, _D_DZ).reshape(k, m, 4, n, m * n)
    connection = np.linalg.solve(at_legs, d_around).reshape(k, m, 4, n, m, n)
    omega = -np.einsum("sdqicj,sq->scdij", connection, _D_DZBAR * scale**2)
    return at_around[0, 0, 0, 0, 1], d_gram, omega


def _richardson(x):
    """(4 X(h/2) - X(h)) / 3 from X(h) = x[0] and X(h/2) = x[1]: central differences lose their h^2 term."""
    return (4 * x[1] - x[0]) / 3


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

    With G the metric matrix on the coordinate directions, d G and Ricci =
    -tr Omega are taken at h and h/2.  Returns the worst d(omega) residual, the
    per-sample Einstein constants (Ricci = -lambda * omega) at h, the worst
    Einstein residual, and the verdict "pass": all three within
    LAMBDA_SPREAD_BOUND (relative spread of the constants), DW_BOUND and
    EINSTEIN_BOUND.  Both residuals are measured on the Richardson combination
    (4 X(h/2) - X(h)) / 3 of d G, Ricci and lambda, which cancels their O(h^2)
    truncation error; at h alone that error grows as Im tau nears the boundary
    and would fail true Kaehler-Einstein metrics.  Raises StepSizeError when
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
        _, d_gram, omega = _chern_curvature(lambda taus: _metric_stack(taus, dirs), tau, dirs, [h, h / 2])
        # d(omega) = 0 reduces to the symmetry of holomorphic derivatives
        d_gram = _richardson(d_gram)
        dw_residual = max(dw_residual, float(np.max(np.abs(d_gram - d_gram.swapaxes(0, 1)))))
        ric = -np.trace(omega, axis1=-2, axis2=-1)
        gmat = hodge_metric_matrix(tau)
        lams = np.trace(np.linalg.solve(gmat, ric), axis1=1, axis2=2).real / len(dirs)
        lam, lam_half = lams
        if abs(lam - lam_half) > 0.05 * max(abs(lam), 1e-12):
            raise StepSizeError("Richardson disagreement: step too small or too large")
        lambdas.append(float(lam))
        einstein_residual = max(einstein_residual,
                                float(np.max(np.abs(_richardson(ric) - _richardson(lams) * gmat))))
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
    first g coordinate vectors.  The curvature is the Chern curvature stencil
    of its Gram matrix at h, whose zero offset gives G(tau) for theta*; the
    right-hand side is algebraic in the Higgs matrices.  The report also
    measures how far the Higgs matrices are from symmetric (the Sym^2
    embedding of the tangent bundle).  The verdict "pass" is the curvature
    residual within CURVATURE_BOUND.

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
    gram, _, curv = _chern_curvature(_frame_grams, tau, dirs, [h])
    theta = np.zeros((m, 2 * g, 2 * g), dtype=complex)
    theta[:, g:, :g] = dirs        # quotient-frame matrix of theta(X) is X itself
    # adjoint under <u, v> = t(u) G conj(v)
    gbar = gram.conj()
    theta_star = np.linalg.solve(gbar, theta.conj().swapaxes(-1, -2) @ gbar)
    rhs = -(theta[:, None] @ theta_star[None] - theta_star[None] @ theta[:, None])

    sym_residual = max(HiggsElement(g, s).symmetry_defect() for s in _higgs_matrices(tau, dirs))
    curvature_residual = float(np.max(np.abs(curv[0] - rhs)))
    return {
        "curvature_residual": curvature_residual,
        "sym_square_residual": sym_residual,
        "pass": curvature_residual <= CURVATURE_BOUND,
    }
