"""General-type certificates for Siegel varieties from verified cusp forms.

A nontrivial cusp form of weight k0 on the degree-g level-l group, raised to
the least power e with (g + 1) | k0 * e, bounds the critical level: the
variety of level N * l is of general type for every integer
N >= max(ceil(3 / l), k0 * e / (g + 1)).  The engine only ever certifies an
upper bound for the critical weight (one cusp form suffices); it never claims
the exact minimum.  Certificates are emitted only from evidence whose checks
ran in the current process.
"""

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import fourier, thetaforms
from .siegelspace import SiegelPoint, moebius_act, cocycle
from .symplectic import j_matrix, translation, gl_embedding

# the paper's level-one thresholds: degree g -> least certified N
PAPER_THRESHOLDS = {2: 10, 3: 9, 4: 8}


def weight_to_power(k0: int, g: int) -> int:
    """Least e >= 1 with (g + 1) dividing k0 * e."""
    if k0 < 1:
        raise ValueError("weight must be positive")
    return (g + 1) // gcd(k0, g + 1)


@dataclass(frozen=True)
class CuspFormEvidence:
    """A verified cusp form raised to the power that aligns its weight."""

    g: int
    level: int
    base_weight: int
    power: int
    verification: tuple   # identifiers of the checks that passed in this run

    def __post_init__(self):
        object.__setattr__(self, "verification", tuple(self.verification))
        if self.base_weight < 1 or self.power < 1:
            raise ValueError("base weight and power must be positive")
        if (self.base_weight * self.power) % (self.g + 1):
            raise ValueError("total weight must be divisible by g + 1")
        if not self.verification:
            raise ValueError("evidence must carry a nonempty verification record")

    @property
    def total_weight(self):
        return self.base_weight * self.power


@dataclass(frozen=True)
class GeneralTypeCertificate:
    g: int
    level: int
    weight: int
    power: int
    n_bound: int
    threshold: int
    statement: str
    evidence: tuple

    def __post_init__(self):
        if self.threshold < 1 or self.threshold * self.level < 3:
            raise ValueError("certified level must be at least 3")

    def to_json(self):
        return {
            "g": self.g,
            "l": self.level,
            "weight": self.weight,
            "power": self.power,
            "n_bound": self.n_bound,
            "threshold": self.threshold,
            "statement": self.statement,
            "evidence": list(self.evidence),
        }


def certify(g: int, l: int, evidence: CuspFormEvidence) -> GeneralTypeCertificate:
    """Turn verified cusp-form evidence into a general-type threshold."""
    if evidence.g != g or evidence.level != l:
        raise ValueError("evidence does not match the requested degree and level")
    n_bound = evidence.total_weight // (g + 1)
    threshold = max(-(-3 // l), n_bound)   # ceil(3 / l) over integers
    statement = (
        f"A_(g={g}, n=N*{l}) is of general type for every integer N >= {threshold}"
    )
    return GeneralTypeCertificate(
        g, l, evidence.base_weight, evidence.power,
        n_bound, threshold, statement, evidence.verification,
    )


# --- in-run evidence pipelines for the three named forms -----------------------


def _level_one_evidence(g: int, base_weight: int, checks) -> CuspFormEvidence:
    """Level-one evidence from (id, passed) pairs; raises naming every failed id."""
    failed = [check_id for check_id, passed in checks if not passed]
    if failed:
        raise RuntimeError(f"verification failed: {failed}")
    return CuspFormEvidence(g, 1, base_weight, weight_to_power(base_weight, g),
                            tuple(check_id for check_id, _ in checks))


def _chi10_evidence() -> CuspFormEvidence:
    """Machine-check the degree-2 weight-10 form: diagonal vanishing with
    multiplicity two, slash invariance over the generator set, cusp decay."""
    diag_value = thetaforms.chi10(SiegelPoint.diagonal(1j, 2j))
    order = thetaforms.vanishing_order_fit(thetaforms.chi10, 1j, 2j, (0.01, 0.02, 0.03, 0.05))
    tau = SiegelPoint(2, np.array([[0.2 + 1.1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.3 + 1.4j]]))
    trunc = thetaforms.TruncationParams(radius=12, target=1e-8)
    base = thetaforms.chi10(tau, trunc)
    gens = [j_matrix(2), translation([[1, 0], [0, -1]]), translation([[2, 1], [1, 0]]),
            gl_embedding([[1, 1], [0, 1]])]
    slashed = [thetaforms.chi10(moebius_act(m, tau), trunc) * cocycle(m, tau) ** (-10) for m in gens]
    zeta = 0.3

    def shifted(point):
        t = point.tau.copy()
        t[0, 1] += zeta
        t[1, 0] += zeta
        return thetaforms.chi10(SiegelPoint(2, t), trunc)

    decay = fourier.decay_check(shifted, SiegelPoint(1, np.array([[1j]])), (2, 3, 4, 5))
    return _level_one_evidence(2, 10, [
        ("chi10:diagonal-vanishing", abs(diag_value) <= 1e-10),
        ("chi10:vanishing-order-2", abs(order - 2.0) <= 0.05),
        ("chi10:slash-invariance-weight-10", all(abs(v - base) <= 1e-7 * abs(base) for v in slashed)),
        ("chi10:cusp-decay", decay["slope"] <= -math.pi / 2),
    ])


def _chi18_evidence() -> CuspFormEvidence:
    """Machine-check the degree-3 weight-18 form: nonvanishing at a generic
    point, translation invariance, cusp decay off the zero divisor."""
    off = np.array([[0, 0.31, 0.17], [0.31, 0, 0.23], [0.17, 0.23, 0]])
    tau = SiegelPoint(3, np.diag([1j, 1.1j, 1.3j]) + off)
    trunc = thetaforms.TruncationParams(radius=5, target=1e-8)
    value = thetaforms.chi18(tau, trunc)
    tail = thetaforms.theta_tail_estimate(tau, trunc)
    b = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 2]])
    shifted_val = thetaforms.chi18(SiegelPoint(3, tau.tau + 2 * b), trunc)
    block = SiegelPoint(2, np.array([[1j, 0.3], [0.3, 1.2j]]))
    zeta = 0.25

    def coupled(point):
        t = point.tau.copy()
        for k in range(2):
            t[k, 2] += zeta
            t[2, k] += zeta
        return thetaforms.chi18(SiegelPoint(3, t), trunc)

    decay = fourier.decay_check(coupled, block, (1.5, 2.0, 2.5, 3.0))
    return _level_one_evidence(3, 18, [
        ("chi18:nonzero-generic-point", abs(value) > 1e3 * tail),
        ("chi18:translation-invariance", abs(shifted_val - value) <= 1e-8 * abs(value)),
        ("chi18:cusp-decay", decay["slope"] <= -math.pi / 2),
    ])


def _schottky_evidence() -> CuspFormEvidence:
    """Machine-check the weight-8 theta difference on its computable shadow:
    the coefficient tables agree at genus 1 and 2, and the genus-2 truncation
    passes the singular-coefficient cusp test."""
    diff1 = thetaforms.schottky_chi8_coefficients(1, 3)
    diff2 = thetaforms.schottky_chi8_coefficients(2, 2)
    return _level_one_evidence(4, 8, [
        ("schottky:genus-1-table-zero", diff1.is_zero()),
        ("schottky:genus-2-table-zero", diff2.is_zero()),
        ("schottky:genus-2-cusp-test", fourier.is_cusp_level1(diff2)[0]),
        ("schottky:phi-vanishing", fourier.siegel_phi(diff2).is_zero()),
    ])


NAMED_FORM_EVIDENCE = {
    "chi10": (2, _chi10_evidence),
    "chi18": (3, _chi18_evidence),
    "schottky": (4, _schottky_evidence),
}


def evidence_for(form: str) -> CuspFormEvidence:
    if form not in NAMED_FORM_EVIDENCE:
        raise ValueError(f"unknown form {form!r}; expected one of {sorted(NAMED_FORM_EVIDENCE)}")
    return NAMED_FORM_EVIDENCE[form][1]()


def reproduce_example_table():
    """The three level-one certificates, with the evidence machine-verified now."""
    rows = []
    for form in ("chi10", "chi18", "schottky"):
        g, make = NAMED_FORM_EVIDENCE[form]
        evidence = make()
        cert = certify(g, 1, evidence)
        rows.append({"g": g, "form": form, "threshold": cert.threshold,
                     "certificate": cert})
    return rows
