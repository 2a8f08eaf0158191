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
no product with J is formed.  The metric against m directions
is one contraction, Tr(t(X_k) Q conj(X_l G^{-1})), of the (P, g^4) point terms
with the (g^4, m^2) direction terms.

Both curvature claims are one computation, the Chern curvature
Omega = -dbar(G^{-1} dG), on two bundles: the tangent bundle with the Hodge
metric (its Ricci form is -tr Omega) and the Hodge bundle with its frame Gram
matrix.  G is rational in tau and conj(tau) taken as independent variables, so
one run of the kernel over jets (_Jet) gives G_s, G_t and G_st along every pair
of coordinate directions, and Omega[c, d] = G^{-1} G_t G^{-1} G_s - G^{-1} G_st
with no step.  Plain arrays are the zero jet: one code computes both, and a
jet's value part is the plain value byte for byte.
"""

from dataclasses import dataclass
from functools import partial

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

# the bounds behind the "pass" verdicts of the Einstein and curvature checks: over einstein-check
# --points 200 at g = 1-3 the worst are a lambda spread of 1.2e-14, d(omega) 5.3e-15 and an Einstein
# residual of 1.05e-13, and over 50 seed-2 points at each g = 1-4 a curvature residual of 5.0e-14
LAMBDA_SPREAD_BOUND = 1e-10
DW_BOUND = 1e-10
EINSTEIN_BOUND = 1e-10
CURVATURE_BOUND = 1e-10

# the largest genus either check takes: one Einstein sample's jets peak at 93 MB under
# tracemalloc at g = 7, and would at 257 MB at g = 8
JET_GENUS_LIMIT = 7

# the signs of the blocks [[-D, C], [B, -A]] of t(J) R t(J), as (row block, 1, column block, 1)
_BLOCK_SWAP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0]).reshape(2, 1, 2, 1)
_OUTER = partial(np.einsum, "...bc,...da->...bcda")     # the point terms Q_bc conj(G^{-1})_da of _metric_stack


class _Jet:
    """A function of tau = tau0 + s X_c and conj(tau) = conj(tau0) + t conj(X_d), taken as
    independent variables, to first order in s and in t.

    ``v`` is the value; the leading axis of ``d`` stacks d/ds per direction c, d/dt per direction d
    and d^2/ds dt per pair (c, d).  Linear maps act on every part, _product and _inverse follow the
    product rule, and conjugation swaps the s and t parts: conj(f(conj(conj tau), conj(tau))) is the
    conjugate of f(tau, conj tau).  A plain array is the zero jet; each operation computes a jet's
    value by the plain operation itself.  Jet operands have equally many axes, a plain one no more.
    """

    __array_ufunc__ = None      # numpy operands defer to the jet's operators

    def __init__(self, v, d):
        self.v, self.d, self.m = v, d, round((len(d) + 1) ** 0.5) - 1

    shape = property(lambda self: self.v.shape)
    s = property(lambda self: self.d[: self.m])
    t = property(lambda self: self.d[self.m: 2 * self.m])
    st = property(lambda self: self.d[2 * self.m:].reshape((self.m, self.m) + self.v.shape))
    real = property(lambda self: _Jet(self.v.real, (self.d + self.conj().d) / 2))
    imag = property(lambda self: _Jet(self.v.imag, (self.d - self.conj().d) / 2j))
    __getitem__ = lambda self, key: _Jet(self.v[key], self.d[(slice(None), *np.index_exp[key])])
    __add__ = lambda self, x: _Jet(self.v + getattr(x, "v", x), self.d + getattr(x, "d", 0))
    __truediv__ = lambda self, x: _Jet(self.v / x, self.d / x)
    __mul__ = __rmul__ = lambda self, x: _product(np.multiply, self, x)
    __matmul__ = lambda self, x: _product(np.matmul, self, x)
    __rmatmul__ = lambda self, x: _product(np.matmul, x, self)
    swapaxes = lambda self, a, b: _Jet(self.v.swapaxes(a, b), self.d.swapaxes(a, b))   # a, b < 0
    reshape = lambda self, *shape: _Jet(self.v.reshape(shape), self.d.reshape((len(self.d),) + shape))

    def __setitem__(self, key, x):
        self.v[key], self.d[(slice(None), *np.index_exp[key])] = getattr(x, "v", x), getattr(x, "d", 0)

    def conj(self):
        m = self.m     # the s and t parts trade places, and st[c, d] takes conj(st[d, c])
        swap = np.r_[m: 2 * m, :m, 2 * m + np.arange(m * m).reshape(m, m).T.ravel()]
        return _Jet(self.v.conj(), self.d.conj()[swap])


def _product(op, a, b):
    """op(a, b) for a bilinear op; where a or b is a jet, its jet by the product rule."""
    if not isinstance(a, _Jet):
        return _Jet(op(a, b.v), op(a, b.d)) if isinstance(b, _Jet) else op(a, b)
    if not isinstance(b, _Jet):
        return _Jet(op(a.v, b), op(a.d, b))
    out = _Jet(op(a.v, b.v), op(a.d, b.v) + op(a.v, b.d))
    out.st[...] += op(a.s[:, None], b.t[None]) + op(a.t[None], b.s[:, None])
    return out


def _inverse(a):
    """np.linalg.inv(a); for a jet, (A^-1)_s = -A^-1 A_s A^-1, likewise for t and st, and
    (A^-1)_st gains -(A^-1)_t A_s A^-1 - (A^-1)_s A_t A^-1."""
    if not isinstance(a, _Jet):
        return np.linalg.inv(a)
    w = np.linalg.inv(a.v)
    inv = _Jet(w, -(w @ a.d @ w))
    inv.st[...] -= (inv.t[None] @ a.s[:, None] + inv.s[:, None] @ a.t[None]) @ w
    return inv


def _empty(like, shape, dtype):
    """np.empty(shape, dtype), or a jet of that shape when ``like`` is one."""
    value = np.empty(shape, dtype)
    return _Jet(value, np.empty(like.d.shape[:1] + shape, complex)) if isinstance(like, _Jet) else value


def _split_inverse(f):
    """R = [Re F, Im F] and R^{-1}, for F single (2g, g) or stacked (P, 2g, g), or their jets.

    ||R||_F ||R^{-1}||_F lies in [cond_2(R), 2g cond_2(R)], so the limit refuses every F whose
    condition number exceeds it (and a NaN, which fails the <=).
    """
    g = f.shape[-1]
    real = _empty(f, f.shape[:-1] + (2 * g,), float)
    real[..., :g], real[..., g:] = f.real, f.imag
    inv = _inverse(real)
    r, i = getattr(real, "v", real), getattr(inv, "v", inv)     # a jet's value, or the array itself
    frobenius = np.einsum("...ij,...ij->...", r, r) * np.einsum("...ij,...ij->...", i, i)
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

    ``taus`` has shape (P, g, g), or is the jet of such a stack.  F = (tau; I)
    spans E^{1,0} = F^1; B holds the H^{0,1}-components of the first g
    coordinate vectors, so conj(F) B
    represents E^{0,1} = V/F^1, and conj(F) B X is the Higgs image of F along
    X.  Both B = (R^{-1}[:g, :g] + i R^{-1}[g:, :g]) / 2 and the Weil operator
    C = R t(J) R^{-1} come from one real inverse of R = [Re F, Im F].  Every point
    is checked for Im tau > 0 and for a well-conditioned splitting V_C = F^1 + conj(F^1).
    """
    p, _, g = taus.shape
    if np.min(np.linalg.eigvalsh(getattr(taus, "v", taus).imag)) <= 0:
        raise ValueError("Im(tau) must be positive definite at every point")
    frame = _empty(taus, (p, 2 * g, 2 * g), complex)     # [F, conj(F) B] = [[tau, conj(tau) B], [I, B]]
    frame[:, :g, :g], frame[:, g:, :g] = taus, np.eye(g)
    real, inv = _split_inverse(frame[:, :, :g])           # F = (tau; I), so R = [[Re tau, Im tau], [I, 0]]
    # t(C u) J conj(v) = t(u) t(t(J) C) conj(v), and t(J) C = t(J) R t(J) R^{-1} where J is a
    # signed block swap: t(J) [[A, B], [C, D]] t(J) = [[-D, C], [B, -A]], exactly
    swapped = real.reshape(p, 2, g, 2, g)[:, ::-1, :, ::-1] * _BLOCK_SWAP_SIGNS
    j_weil = swapped.reshape(p, 2 * g, 2 * g) @ inv
    b = (inv[:, :g, :g] + 1j * inv[:, g:, :g]) / 2
    frame[:, :g, g:], frame[:, g:, g:] = taus.conj() @ b, b
    return (j_weil @ frame).swapaxes(-1, -2) @ frame.conj()


def _metric_stack(taus, dirs):
    """Hodge metric matrices (P, m, m) against the directions ``dirs`` (m, g, g), or their jet.

    Entry (k, l) sums the pairings of the Higgs images of an H-orthonormal
    frame F S of F^1 along X_k and X_l.  With G the Gram matrix of F and Q
    that of conj(F) B, and S S* = G^{-1}, it is Tr(t(X_k) Q conj(X_l G^{-1})):
    the sum over (b, c, d, a) of Q_bc conj(G^{-1})_da against X_k[b, a] conj(X_l)[c, d],
    one product of the (P, g^4) point terms with the (g^4, m^2) direction terms.
    """
    m, g = len(dirs), dirs.shape[-1]
    grams = _frame_grams(taus)
    frame = grams[:, :g, :g]
    frame_inv = _inverse((frame + frame.conj().swapaxes(-1, -2)) / 2)
    terms = _product(_OUTER, grams[:, g:, g:], frame_inv.conj()).reshape(grams.shape[0], -1)
    out = (terms @ np.einsum("kba,lcd->bcdakl", dirs, dirs.conj()).reshape(-1, m * m)).reshape(-1, m, m)
    return (out + out.conj().swapaxes(-1, -2)) / 2


def _basis_stack(g):
    return np.array([x.X for x in tangent_basis(g)])


def _tau_jet(tau):
    """The jet of tau + s_c X_c as a stack of one point, and the coordinate directions X_c."""
    if tau.g > JET_GENUS_LIMIT:
        raise ValueError(f"the Einstein and curvature checks are guarded to g <= {JET_GENUS_LIMIT}")
    dirs = _basis_stack(tau.g)
    seed = np.concatenate([dirs[:, None], np.zeros((len(dirs) * (len(dirs) + 1), 1, tau.g, tau.g))])
    return _Jet(tau.tau[None], seed), dirs


def _chern_curvature(gram):
    """Omega[c, d] = -dbar_d(G^{-1} d_c G) = G^{-1} G_t G^{-1} G_s - G^{-1} G_st, from the jet of G."""
    w = np.linalg.inv(gram.v)
    return w @ gram.t[None] @ w @ gram.s[:, None] - w @ gram.st


def hodge_metric_tangent(tau: SiegelPoint, x: TangentDirection, y: TangentDirection) -> complex:
    """Inner product of Higgs images, in the metric induced on Hom(H^{1,0}, H^{0,1})."""
    return complex(_metric_stack(tau.tau[None], np.array([x.X, y.X]))[0, 0, 1])


def hodge_metric_matrix(tau: SiegelPoint):
    """Matrix of the induced metric against the coordinate tangent directions."""
    return _metric_stack(tau.tau[None], _basis_stack(tau.g))[0]


def kahler_einstein_check(tau_samples):
    """Closedness of the Kaehler form and the Einstein constant, from jets.

    With G the metric matrix on the coordinate directions, one jet of the kernel per sample
    gives d G and Ricci = -tr Omega.  Returns the worst d(omega) residual, the per-sample
    Einstein constants (Ricci = lambda G), the worst Einstein residual, and the verdict "pass":
    all three within LAMBDA_SPREAD_BOUND (relative spread of the constants), DW_BOUND and
    EINSTEIN_BOUND.  Refuses g > JET_GENUS_LIMIT.
    """
    if not tau_samples:
        raise ValueError("the Einstein check needs at least one sample point")
    lambdas, dw_residual, einstein_residual = [], 0.0, 0.0
    for tau in tau_samples:
        metric = _metric_stack(*_tau_jet(tau))
        # d(omega) = 0 reduces to the symmetry of holomorphic derivatives
        d_gram = metric.s[:, 0]
        dw_residual = max(dw_residual, float(np.max(np.abs(d_gram - d_gram.swapaxes(0, 1)))))
        ric = -np.trace(_chern_curvature(metric)[:, :, 0], axis1=-2, axis2=-1)
        gmat = hodge_metric_matrix(tau)
        lambdas.append(float(np.trace(np.linalg.solve(gmat, ric)).real) / len(gmat))
        einstein_residual = max(einstein_residual, float(np.max(np.abs(ric - lambdas[-1] * gmat))))
    spread = (max(lambdas) - min(lambdas)) / abs(lambdas[0])
    return {
        "lambda": lambdas,
        "dw_residual": dw_residual,
        "einstein_residual": einstein_residual,
        "pass": spread <= LAMBDA_SPREAD_BOUND and dw_residual <= DW_BOUND
        and einstein_residual <= EINSTEIN_BOUND,
    }


# --- curvature of the Hodge bundle -------------------------------------------


def higgs_curvature_identity_check(tau: SiegelPoint):
    """Check Theta(E, H) = -(theta theta* + theta* theta) at a point.

    E = E^{1,0} + E^{0,1} carries the frame of _frame_grams: the filtration
    frame f_j and, for the quotient V/F^1, the H^{0,1}-components of the
    first g coordinate vectors.  The curvature is the Chern curvature of the
    jet of its Gram matrix, whose value part gives G(tau) for theta*; the
    right-hand side is algebraic in the Higgs matrices.  The report also
    measures how far the Higgs matrices are from symmetric (the Sym^2
    embedding of the tangent bundle).  The verdict "pass" is the curvature
    residual within CURVATURE_BOUND.  Refuses g > JET_GENUS_LIMIT.

    The companion identity theta ^ theta = 0 is not measured: in weight one
    it holds by Hodge type.  theta maps E^{1,0} to E^{0,1} and kills E^{0,1},
    so theta theta = 0 by the block shape of the Higgs matrices, and
    theta* theta* = G^{-1} (theta theta)^* G with it; a residual for either
    could not fail.
    """
    g = tau.g
    taus, dirs = _tau_jet(tau)
    gram = _frame_grams(taus)
    theta = np.zeros((len(dirs), 2 * g, 2 * g), dtype=complex)
    theta[:, g:, :g] = dirs        # quotient-frame matrix of theta(X) is X itself
    # adjoint under <u, v> = t(u) G conj(v)
    gbar = gram.v[0].conj()
    theta_star = np.linalg.solve(gbar, theta.conj().swapaxes(-1, -2) @ gbar)
    rhs = -(theta[:, None] @ theta_star[None] - theta_star[None] @ theta[:, None])

    sym_residual = max(HiggsElement(g, s).symmetry_defect() for s in _higgs_matrices(tau, dirs))
    curvature_residual = float(np.max(np.abs(_chern_curvature(gram)[:, :, 0] - rhs)))
    return {
        "curvature_residual": curvature_residual,
        "sym_square_residual": sym_residual,
        "pass": curvature_residual <= CURVATURE_BOUND,
    }
