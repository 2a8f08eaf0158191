"""Fourier-expansion arithmetic for Siegel modular forms.

Expansions are finite tables indexed by half-integral positive semidefinite
matrices A (stored through 2A, integral with an even diagonal): a level-n table
holds the c(A) of f(tau) = sum c(A) exp((2 pi i / n) Tr(A tau)).  Coefficients
are exact integers whenever the construction allows.  Keys are canonicalized as the
upper triangle of 2A in row-major order, which fixes serialization and merge
order once and for all.
"""

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import exact
from .symplectic import SymplecticMatrix, congruence_membership
from .siegelspace import SiegelPoint


@dataclass(frozen=True)
class HalfIntegralMatrix:
    """A symmetric matrix A with 2A integral, its diagonal even, and A positive semidefinite."""

    g: int
    twoA: tuple

    def __post_init__(self):
        rows = exact.symmetric_integers(self.twoA, self.g, "twoA")
        if any(rows[i][i] % 2 for i in range(self.g)):
            raise ValueError("twoA must have an even diagonal: A is half-integral")
        object.__setattr__(self, "twoA", rows)
        if exact.symmetric_pivots(rows) is None:
            raise ValueError("A must be positive semidefinite")

    @classmethod
    @lru_cache(maxsize=None)
    def from_key(cls, g, key):
        """The index with this canonical key, built and PSD-checked once per key."""
        rows = [[0] * g for _ in range(g)]
        it = iter(key)
        for i in range(g):
            for j in range(i, g):
                v = next(it)
                rows[i][j] = rows[j][i] = v
        return cls(g, tuple(tuple(r) for r in rows))

    def key(self):
        """Canonical key: upper triangle of 2A, row-major."""
        return tuple(self.twoA[i][j] for i in range(self.g) for j in range(i, self.g))

    def trace_two_a(self):
        return sum(self.twoA[i][i] for i in range(self.g))

    def is_singular(self):
        return exact.det(self.twoA) == 0


def _coeff_to_json(value):
    if isinstance(value, int):
        return {"re": value, "im": 0}
    c = complex(value)
    re = int(c.real) if float(c.real).is_integer() else c.real
    im = int(c.imag) if float(c.imag).is_integer() else c.imag
    return {"re": re, "im": im}


def _coeff_from_json(re, im):
    if not all(type(x) is int or type(x) is float and math.isfinite(x) for x in (re, im)):
        raise ValueError(f"coefficient re={re!r}, im={im!r} is not a pair of finite numbers")
    return re if type(re) is int and type(im) is int and im == 0 else complex(re, im)


@dataclass(frozen=True)
class FourierExpansion:
    """A finite Fourier table of a degree-g, level-n, weight-k modular form."""

    g: int
    level: int
    weight: int
    coeffs: dict
    trace_bound: int = 0

    def __post_init__(self):
        if self.g < 0:
            raise ValueError("genus must be >= 0")
        if self.level < 1:
            raise ValueError("level must be >= 1")
        if self.weight < 0:
            raise ValueError("weight must be >= 0")
        canon = {}
        trace_bound = 0
        for key, value in self.coeffs.items():
            if isinstance(key, HalfIntegralMatrix):
                a = key
            else:
                a = HalfIntegralMatrix.from_key(self.g, tuple(key))
            canon[a.key()] = value
            trace_bound = max(trace_bound, a.trace_two_a())
        object.__setattr__(self, "coeffs", canon)
        if self.trace_bound == 0:
            object.__setattr__(self, "trace_bound", trace_bound)
        # symmetry_check skips indices past the bound, so a bound below the support would skip them all
        if self.trace_bound < trace_bound:
            raise ValueError(f"trace_bound {self.trace_bound} is below the largest trace {trace_bound} of 2A")

    def coefficient(self, a: HalfIntegralMatrix):
        return self.coeffs.get(a.key(), 0)

    def items(self):
        for k in sorted(self.coeffs):
            yield HalfIntegralMatrix.from_key(self.g, k), self.coeffs[k]

    def is_zero(self):
        return all(v == 0 for v in self.coeffs.values())

    def to_json(self):
        return {
            "genus": self.g,
            "level": self.level,
            "weight": self.weight,
            "trace_bound": self.trace_bound,
            "coeffs": [
                {"twoA": [list(r) for r in a.twoA], **_coeff_to_json(v)}
                for a, v in self.items()
            ],
        }

    def to_json_str(self):
        return json.dumps(self.to_json(), indent=1)

    @classmethod
    def from_json(cls, data):
        """The expansion to_json writes; ValueError on another structure, KeyError on a missing key."""
        if not isinstance(data, dict):
            raise ValueError("a Fourier expansion is a JSON object")
        g, level, weight = data["genus"], data["level"], data["weight"]
        trace_bound, entries = data.get("trace_bound", 0), data["coeffs"]
        if any(type(x) is not int for x in (g, level, weight, trace_bound)):
            raise ValueError("genus, level, weight and trace_bound must be integers")
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            raise ValueError("coeffs must be a list of objects")
        coeffs = {HalfIntegralMatrix(g, e["twoA"]): _coeff_from_json(e["re"], e["im"]) for e in entries}
        return cls(g, level, weight, coeffs, trace_bound)

    def __sub__(self, other):
        if (self.g, self.level, self.weight) != (other.g, other.level, other.weight):
            raise ValueError("expansions are not compatible")
        bound = min(self.trace_bound, other.trace_bound)
        keys = [k for k in set(self.coeffs) | set(other.coeffs)
                if HalfIntegralMatrix.from_key(self.g, k).trace_two_a() <= bound]
        diff = {HalfIntegralMatrix.from_key(self.g, k): self.coeffs.get(k, 0) - other.coeffs.get(k, 0)
                for k in keys}
        return FourierExpansion(self.g, self.level, self.weight, diff, bound)


def evaluate(f: FourierExpansion, tau: SiegelPoint) -> complex:
    """Sum c(A) exp((2 pi i / n) Tr(A tau)) over the stored support."""
    if tau.g != f.g:
        raise ValueError("genus mismatch")
    if not f.coeffs:
        raise ValueError("expansion has empty support")
    total = 0j
    for a, c in f.items():
        tr = sum(a.twoA[i][j] * tau.tau[j, i] for i in range(f.g) for j in range(f.g))    # Tr(2A tau)
        total += c * cmath.exp(1j * math.pi * tr / f.level)
    return total


@dataclass(frozen=True)
class SlashContext:
    """A matrix M(V, U) = (V^{-1}, U; 0, t(V)) in the level-n group."""

    V: tuple
    U: tuple
    level: int = 1

    def __post_init__(self):
        v = exact.to_exact(self.V)
        u = exact.to_exact(self.U)
        object.__setattr__(self, "V", v)
        object.__setattr__(self, "U", u)
        m = self.matrix()
        if not congruence_membership(m, self.level):
            raise ValueError("M(V, U) is not in the level-n congruence group")

    def matrix(self) -> SymplecticMatrix:
        g = len(self.V)
        return SymplecticMatrix.from_blocks(
            exact.inverse(self.V), self.U, exact.zeros(g), exact.transpose(self.V)
        )


def symmetry_check(f: FourierExpansion, ctx: SlashContext, tol=1e-9):
    """Violations of c(tVAV) = det(V)^k exp(-(2 pi i / n) Tr(AVU)) c(A).

    Only indices whose transform stays inside the truncation window are
    compared; returns a list of (A, residual) pairs, empty meaning pass.  A
    NaN, infinite or negative tol is refused: no residual would exceed it.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    v, u = ctx.V, ctx.U
    if len(v) != f.g:
        raise ValueError(f"M(V, U) has degree {len(v)} but the expansion has genus {f.g}")
    det_v = exact.det(v)
    violations = []
    for a, c in f.items():
        two_a = a.twoA
        transported = exact.mat_mul(exact.mat_mul(exact.transpose(v), two_a), v)
        tr2 = sum(transported[i][i] for i in range(f.g))
        if tr2 > f.trace_bound:
            continue
        image = HalfIntegralMatrix(f.g, transported)
        # 2 pi Tr(AVU) = pi Tr(2A VU), with Tr(2A VU) exact
        two_avu = exact.mat_mul(exact.mat_mul(two_a, v), u)
        phase = cmath.exp(-1j * math.pi * sum(two_avu[i][i] for i in range(f.g)) / f.level)
        expected = (float(det_v) ** f.weight) * phase * complex(c)
        got = complex(f.coefficient(image))
        if abs(got - expected) > tol:
            violations.append((a, abs(got - expected)))
    return violations


def siegel_phi(f: FourierExpansion) -> FourierExpansion:
    """The degree-lowering operator: c'(A') = c(diag(A', 0))."""
    if f.g < 1:
        raise ValueError("already at genus 0")
    g_new = f.g - 1
    coeffs = {}
    for a, c in f.items():
        if any(a.twoA[f.g - 1]):
            continue
        # the key of A', its index built and PSD-checked once per key by HalfIntegralMatrix.from_key
        coeffs[tuple(a.twoA[i][j] for i in range(g_new) for j in range(i, g_new))] = c
    return FourierExpansion(g_new, f.level, f.weight, coeffs, f.trace_bound)


def is_cusp_level1(f: FourierExpansion):
    """Level-1 cusp test: every singular index must carry a zero coefficient.

    Returns (True, None) or (False, witness).  At level one this is the
    reduction of requiring the degree-lowering operator to kill every group
    translate of the form.
    """
    if f.level != 1:
        raise ValueError("cusp test by singular support is only valid at level 1")
    for a, c in f.items():
        if a.is_singular() and c != 0:
            return False, a
    return True, None


def decay_check(evaluator, tau_prime, t_grid):
    """Growth of a degree-g form along diag(tau', i t) for increasing t.

    Fits log|f| against t with least squares; for cusp forms the slope must
    come out <= -pi/2, while forms with nonzero image under the
    degree-lowering operator stabilize at a nonzero limit.  The evaluator is
    any callable on degree-g Siegel points.
    """
    ts = [float(t) for t in t_grid]
    if len(ts) < 4 or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("t grid must be increasing with at least 4 points")
    g_prime = tau_prime.g
    values = []
    for t in ts:
        block = np.zeros((g_prime + 1, g_prime + 1), dtype=complex)
        block[:g_prime, :g_prime] = tau_prime.tau
        block[g_prime, g_prime] = 1j * t
        values.append(complex(evaluator(SiegelPoint(g_prime + 1, block))))
    mags = [abs(v) for v in values]
    if all(m == 0 for m in mags):
        return {"t": ts, "values": values, "slope": -math.inf, "limit": 0.0,
                "identically_zero": True}
    floor = max(mags) * 1e-300 + 1e-300
    logs = [math.log(max(m, floor)) for m in mags]
    slope = float(np.polyfit(ts, logs, 1)[0])
    return {"t": ts, "values": values, "slope": slope, "limit": mags[-1],
            "identically_zero": False}
