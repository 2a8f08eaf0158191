"""The Siegel upper half space, its symplectic action, and metric primitives.

Numerical conventions: structural identities are enforced at 1e-12, algebraic
identities at 1e-9, and the Hodge checks' jet derivatives at 1e-10.  The invariant metric is
normalized as  h_tau(X, Y) = Tr((Im tau)^{-1} X (Im tau)^{-1} conj(Y)); all
comparisons against other homogeneous metrics are made up to one global
positive constant.
"""

import math
from dataclasses import dataclass

import numpy as np

SYM_TOL = 1e-12
ISOTROPY_TOL = 1e-10


class NumericalDegeneracyError(ArithmeticError):
    """Raised when a matrix inversion is too ill-conditioned to trust."""


def _as_complex_matrix(m, g):
    arr = np.asarray(m, dtype=complex)
    if arr.shape != (g, g):
        raise ValueError(f"expected a {g} x {g} matrix, got shape {arr.shape}")
    return arr


def j_matrix_float(g):
    j = np.zeros((2 * g, 2 * g))
    j[:g, g:] = -np.eye(g)
    j[g:, :g] = np.eye(g)
    return j


@dataclass(frozen=True)
class SiegelPoint:
    """A point tau of the degree-g Siegel space: symmetric, Im(tau) > 0."""

    g: int
    tau: np.ndarray

    def __post_init__(self):
        if self.g < 1:
            raise ValueError("degree g must be a positive integer")
        tau = _as_complex_matrix(self.tau, self.g)
        object.__setattr__(self, "tau", tau)
        if np.max(np.abs(tau - tau.T)) > SYM_TOL:
            raise ValueError("tau must be symmetric")
        if np.min(np.linalg.eigvalsh(self.imag)) <= 0:
            raise ValueError("Im(tau) must be positive definite")

    @property
    def imag(self):
        y = self.tau.imag
        return (y + y.T) / 2

    @property
    def real(self):
        x = self.tau.real
        return (x + x.T) / 2

    @classmethod
    def diagonal(cls, *values):
        return cls(len(values), np.diag([complex(v) for v in values]))

    @classmethod
    def scaled_identity(cls, g, t=1.0):
        return cls(g, 1j * t * np.eye(g))


@dataclass(frozen=True)
class TangentDirection:
    """A holomorphic tangent vector at a Siegel point, in d/dtau coordinates."""

    g: int
    X: np.ndarray

    def __post_init__(self):
        x = _as_complex_matrix(self.X, self.g)
        object.__setattr__(self, "X", x)
        if np.max(np.abs(x - x.T)) > SYM_TOL:
            raise ValueError("tangent direction must be symmetric")


def tangent_basis(g):
    """The g(g+1)/2 coordinate directions E_ii and E_ij + E_ji (i < j)."""
    out = []
    for i in range(g):
        for j in range(i, g):
            x = np.zeros((g, g), dtype=complex)
            x[i, j] = 1
            x[j, i] = 1
            if i == j:
                x[i, i] = 1
            out.append(TangentDirection(g, x))
    return out


@dataclass(frozen=True)
class PeriodPoint:
    """A g-plane F^1 in C^{2g}: isotropic for the form, with i*psi(F, conj F) > 0."""

    g: int
    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.shape != (2 * self.g, self.g):
            raise ValueError(f"basis must be {2 * self.g} x {self.g}")
        object.__setattr__(self, "basis", basis)
        if np.linalg.matrix_rank(basis, tol=1e-10) != self.g:
            raise ValueError("basis must have full rank g")
        j = j_matrix_float(self.g)
        iso = basis.T @ j @ basis
        if np.max(np.abs(iso)) > ISOTROPY_TOL:
            raise ValueError("plane is not isotropic for the symplectic form")
        herm = self.positivity_matrix()
        if np.min(np.linalg.eigvalsh((herm + herm.conj().T) / 2)) <= 0:
            raise ValueError("i * psi(F, conj F) is not positive definite")

    def positivity_matrix(self):
        """The Hermitian matrix with entries i * psi(f_j, conj(f_k))."""
        j = j_matrix_float(self.g)
        return 1j * self.basis.T @ j @ self.basis.conj()

    def isotropy_residual(self):
        j = j_matrix_float(self.g)
        return float(np.max(np.abs(self.basis.T @ j @ self.basis)))


def blocks_as_float(m):
    """(A, B, C, D) of a SymplecticMatrix (or 2g x 2g array) as float arrays."""
    if hasattr(m, "blocks"):
        a, b, c, d = m.blocks
        return tuple(np.array([[float(x) for x in row] for row in blk]) for blk in (a, b, c, d))
    arr = np.asarray(m, dtype=float)
    g = arr.shape[0] // 2
    return arr[:g, :g], arr[:g, g:], arr[g:, :g], arr[g:, g:]


def moebius_act(m, tau: SiegelPoint) -> SiegelPoint:
    """(A tau + B)(C tau + D)^{-1}; guards against near-singular C tau + D."""
    a, b, c, d = blocks_as_float(m)
    denom = c @ tau.tau + d
    if np.linalg.cond(denom) > 1e12:
        raise NumericalDegeneracyError("C tau + D is numerically singular")
    out = (a @ tau.tau + b) @ np.linalg.inv(denom)
    return SiegelPoint(tau.g, (out + out.T) / 2)


def cocycle(m, tau: SiegelPoint) -> complex:
    """The automorphy factor det(C tau + D)."""
    _, _, c, d = blocks_as_float(m)
    return complex(np.linalg.det(c @ tau.tau + d))


def pushforward(m, tau: SiegelPoint, x: TangentDirection) -> TangentDirection:
    """Differential of the action: X -> t(C tau + D)^{-1} X (C tau + D)^{-1}."""
    _, _, c, d = blocks_as_float(m)
    q = c @ tau.tau + d
    qinv = np.linalg.inv(q)
    out = qinv.T @ x.X @ qinv
    return TangentDirection(tau.g, (out + out.T) / 2)


def borel_embed(tau: SiegelPoint) -> PeriodPoint:
    """tau -> the column span of (tau; I), as a weight-one period point."""
    return PeriodPoint(tau.g, np.vstack([tau.tau, np.eye(tau.g)]))


def subspace_distance(b1, b2):
    """Operator-norm distance of orthogonal projectors onto two column spans."""
    q1, _ = np.linalg.qr(b1)
    q2, _ = np.linalg.qr(b2)
    p1 = q1 @ q1.conj().T
    p2 = q2 @ q2.conj().T
    return float(np.linalg.norm(p1 - p2, 2))


def bergman_metric(tau: SiegelPoint, x: TangentDirection, y: TangentDirection) -> complex:
    """Invariant Hermitian metric Tr(Y^{-1} X Y^{-1} conj(W)) at tau."""
    yinv = np.linalg.inv(tau.imag)
    return complex(np.trace(yinv @ x.X @ yinv @ y.X.conj()))


def bergman_volume_density(tau: SiegelPoint) -> float:
    """det(Im tau)^{-(g+1)}, the invariant volume density."""
    return float(np.linalg.det(tau.imag) ** (-(tau.g + 1)))


def random_siegel_point(g, rng, spread=0.5) -> SiegelPoint:
    """A generic point: random symmetric real part, Y = I + small symmetric."""
    x = rng.standard_normal((g, g)) * spread
    x = (x + x.T) / 2
    y = rng.standard_normal((g, g)) * (spread / 2)
    y = np.eye(g) + (y + y.T) / 2
    lam = np.min(np.linalg.eigvalsh(y))
    if lam < 0.2:
        y += (0.25 - lam) * np.eye(g)
    return SiegelPoint(g, x + 1j * y)


def random_tangent(g, rng) -> TangentDirection:
    """A random symmetric complex tangent direction of unit-ish size."""
    x = rng.standard_normal((g, g)) + 1j * rng.standard_normal((g, g))
    return TangentDirection(g, (x + x.T) / 2)


def _fit_loglog(xs, ys):
    """Least-squares slope of log(ys) against log(xs)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(lx, ly, 1)
    return float(slope), float(intercept)


def boundary_growth_probe(g, sample_radii):
    """Growth of the invariant metric near the standard cusp, in the log frame.

    The last diagonal coordinate is traded for q = exp(2 pi i tau_gg) and the
    metric components are expressed against the frame dq/q in that slot.  For
    each coordinate direction the exponent of the component in -log|q| is
    fitted; bounded (non-positive or small) exponents witness that nothing
    grows like a power of 1/|q| in the logarithmic frame.
    """
    if g not in (1, 2):
        raise ValueError("probe supports g = 1 or 2")
    radii = [float(r) for r in sample_radii]
    if not all(0 < r < math.exp(-2 * math.pi) for r in radii):
        raise ValueError("radii must lie in (0, exp(-2 pi))")
    if len(set(radii)) < 2:
        raise ValueError("fitting an exponent needs at least two distinct radii")
    basis = tangent_basis(g)
    rows = {i: [] for i in range(len(basis))}
    for r in radii:
        t = -math.log(r) / (2 * math.pi)  # tau_gg = i t
        if g == 1:
            tau = SiegelPoint.scaled_identity(1, t)
        else:
            tau = SiegelPoint.diagonal(1j, 1j * t)
        for i, x in enumerate(basis):
            comp = abs(bergman_metric(tau, x, x))
            # dq/q = 2 pi i dtau_gg: rescale once per dtau_gg leg of the direction
            if abs(x.X[g - 1, g - 1]) > 0:
                legs = 2
            elif abs(x.X[g - 1]).sum() > 0:
                legs = 1
            else:
                legs = 0
            rows[i].append(comp * (2 * math.pi) ** (-legs))
    report = {"g": g, "radii": radii, "directions": []}
    worst = -math.inf
    for i, x in enumerate(basis):
        logq = [-math.log(r) for r in radii]
        exponent, _ = _fit_loglog(logq, rows[i])
        report["directions"].append({
            "direction": i,
            "components": rows[i],
            "fitted_exponent": exponent,
        })
        worst = max(worst, exponent)
    report["max_exponent"] = worst
    report["bounded"] = worst <= 2.0 + 1e-6
    return report
