"""The three workloads: seeded op streams over siegelkit's public API, and the
correctness gate of every op.

Each op returns the list of checks it failed (empty means it passed); an op
that raises counts as failed too.  Reference values come from theory, not from
the code under test:

- the certificate thresholds {2: 10, 3: 9, 4: 8} and the evidence ids each
  pipeline documents;
- the Einstein constant lambda = g + 1 of the Siegel space;
- theta series of E8 at genus 1, 1 + 240 sigma_3(n) q^n, and Phi^(g-1) of
  the genus-g series, which is the genus-1 series again;
- the rank-16 genus-1 counts 480 sigma_7(n);
- the classical chi10 constant, exactly +-2^-12 or +-2^-14;
- Sp(4, Z) identities (det 1, the pairing) and the action's cocycle laws;
- the combinatorics of the simplicial principal cone and the n/m pullback.
"""

import io
import json
import random
from contextlib import redirect_stdout
from functools import partial
from itertools import islice, repeat

import numpy as np

from siegelkit import cli, exact, fourier, hodge, siegelspace, symplectic, thetaforms, toroidal

THRESHOLDS = {2: 10, 3: 9, 4: 8}
EVIDENCE_IDS = {
    "chi10": {"chi10:diagonal-vanishing", "chi10:vanishing-order-2",
              "chi10:slash-invariance-weight-10", "chi10:cusp-decay"},
    "chi18": {"chi18:nonzero-generic-point", "chi18:translation-invariance",
              "chi18:cusp-decay"},
    "schottky": {"schottky:genus-1-table-zero", "schottky:genus-2-table-zero",
                 "schottky:genus-2-cusp-test", "schottky:phi-vanishing"},
}
CHI10_CONSTANTS = (2.0 ** -12, -(2.0 ** -12), 2.0 ** -14, -(2.0 ** -14))
LATTICE_CASES = ((1, 4), (2, 2), (2, 3), (3, 2), (3, 3))   # (genus, trace) for E8
QUERY_CLASSES = ("sp-word", "action", "slash", "lattice", "toroidal")
ROUND_OPS = {"certify-cold": 1, "period-geometry": 1, "query-mix": 100}
SLASH_TRUNC = thetaforms.TruncationParams(radius=12, target=1e-8)


def sigma(k, n):
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def rank16_shells(bound):
    """Vectors of norm 0, 2, ..., bound in an even unimodular rank-16 lattice."""
    return [1] + [480 * sigma(7, n) for n in range(1, bound // 2 + 1)]


def _e8_genus1(trace):
    """Genus-1 coefficients keyed by 2A = (2n), as FourierExpansion stores them."""
    return {(2 * n,): 240 * sigma(3, n) if n else 1 for n in range(trace + 1)}


def _chi10_constant_failures():
    c = thetaforms.chi10_normalization()
    return [] if c in CHI10_CONSTANTS else [f"chi10-normalization:{c!r}"]


def setup(workload, seed):
    """Set-up of one workload process: fixtures, caches and warm-up.  Returns
    the ops of one round, the same for every round of a run, and the failed
    set-up checks."""
    failures = []
    if workload == "certify-cold":
        stream = repeat(("examples-table", partial(certify_cold_op, seed)))
    elif workload == "period-geometry":
        hodge.hodge_metric_matrix(siegelspace.SiegelPoint.scaled_identity(2))
        stream = period_geometry_stream(seed)
    else:
        failures = query_mix_setup()
        stream = query_mix_stream(seed)
    return list(islice(stream, ROUND_OPS[workload])), failures


# --- certify-cold: one `siegelkit examples-table`, run in a fresh interpreter ---


def certify_cold_op(seed):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["--seed", str(seed), "examples-table"])
    payload = json.loads(out.getvalue())
    failures = [] if code == 0 and payload["pass"] else [f"exit:{code}"]
    rows = {row["g"]: row for row in payload["rows"]}
    if {g: row["threshold"] for g, row in rows.items()} != THRESHOLDS:
        failures.append("thresholds")
    for row in rows.values():
        if set(row["evidence"]) != EVIDENCE_IDS.get(row["form"]):
            failures.append(f"evidence:{row['form']}")
    return failures + _chi10_constant_failures()


# --- period-geometry: Einstein, Hodge/Bergman and curvature at one point --------


def period_geometry_stream(seed):
    rng = np.random.default_rng(seed)
    while True:
        tau = siegelspace.random_siegel_point(2, rng)
        yield "point", partial(period_geometry_op, tau)


def period_geometry_op(tau):
    failures = []
    report = hodge.kahler_einstein_check([tau])
    lam = report["lambda"][0]
    if abs(lam - (tau.g + 1)) > 1e-3 * (tau.g + 1):
        failures.append(f"einstein-lambda:{lam}")
    if report["dw_residual"] > 1e-4:
        failures.append("dw-residual")
    ratios = [hodge.hodge_metric_tangent(tau, x, x).real / siegelspace.bergman_metric(tau, x, x).real
              for x in siegelspace.tangent_basis(tau.g)]
    if (max(ratios) - min(ratios)) / abs(ratios[0]) > 1e-8:
        failures.append("hodge-bergman-spread")
    if hodge.higgs_curvature_identity_check(tau)["curvature_residual"] > 1e-3:
        failures.append("curvature-residual")
    return failures


# --- query-mix: small exact and modular queries --------------------------------


def query_mix_setup():
    """Fill the E8 enumeration cache and the chi10 calibration."""
    e8 = thetaforms.named_lattice("e8")
    for _, trace in LATTICE_CASES:
        thetaforms.short_vectors(e8, 2 * trace)
    return _chi10_constant_failures()


def query_mix_stream(seed):
    """Classes come in shuffled rounds of one each, so every class has the same
    weight in any prefix of the stream; the lattice cases rotate the same way."""
    rng = random.Random(seed)
    cases = []
    while True:
        classes = list(QUERY_CLASSES)
        rng.shuffle(classes)
        for name in classes:
            op_seed = rng.getrandbits(64)
            if name == "lattice":
                if not cases:
                    cases = list(LATTICE_CASES)
                    rng.shuffle(cases)
                yield name, partial(lattice_query, *cases.pop())
            else:
                yield name, partial(_seeded, QUERIES[name], op_seed)


def _seeded(query, seed):
    return query(random.Random(seed))


def _omega(u, v):
    g = len(u) // 2
    return sum(u[g + i] * v[i] - u[i] * v[g + i] for i in range(g))


def sp_word_query(rng):
    m = symplectic.random_symplectic(2, rng, 6, 2)
    failures = []
    if not symplectic.is_symplectic(m.entries):
        failures.append("is-symplectic")
    if m.det() != 1:
        failures.append("det")
    u = [rng.randint(-3, 3) for _ in range(4)]
    v = [rng.randint(-3, 3) for _ in range(4)]
    if _omega(exact.mat_vec(m.entries, u), exact.mat_vec(m.entries, v)) != _omega(u, v):
        failures.append("pairing")
    return failures


def _float(block):
    return np.array([[float(x) for x in row] for row in block])


def action_query(rng):
    m = symplectic.random_symplectic(2, rng, 3, 1)
    n = symplectic.random_symplectic(2, rng, 3, 1)
    tau = siegelspace.random_siegel_point(2, np.random.default_rng(rng.getrandbits(64)))
    failures = []
    lhs = siegelspace.cocycle(m @ n, tau)
    rhs = siegelspace.cocycle(m, siegelspace.moebius_act(n, tau)) * siegelspace.cocycle(n, tau)
    if abs(lhs - rhs) > 1e-9 * abs(lhs):
        failures.append("cocycle-chain-rule")
    _, _, c, d = m.blocks
    q = _float(c) @ tau.tau + _float(d)
    image = siegelspace.moebius_act(m, tau)
    im_pred = np.linalg.inv(q.conj()).T @ tau.imag @ np.linalg.inv(q)
    if np.max(np.abs(image.imag - im_pred)) > 1e-9 * max(1.0, float(np.max(np.abs(im_pred)))):
        failures.append("im-transform")
    moved = _float(m.entries) @ siegelspace.borel_embed(tau).basis
    if siegelspace.subspace_distance(moved, siegelspace.borel_embed(image).basis) > 1e-9:
        failures.append("borel-equivariance")
    density = siegelspace.bergman_volume_density(tau)
    moved_density = (siegelspace.bergman_volume_density(image)
                     * abs(np.linalg.det(q)) ** (-2 * (tau.g + 1)))
    if abs(moved_density - density) > 1e-9 * density:
        failures.append("volume-density")
    return failures


SLASH_GENERATORS = (
    partial(symplectic.j_matrix, 2),
    partial(symplectic.translation, ((1, 0), (0, -1))),
    partial(symplectic.translation, ((2, 1), (1, 0))),
    partial(symplectic.gl_embedding, ((1, 1), (0, 1))),
    partial(symplectic.gl_embedding, ((0, 1), (1, 0))),
)


def slash_query(rng):
    m = rng.choice(SLASH_GENERATORS)()
    tau = siegelspace.random_siegel_point(2, np.random.default_rng(rng.getrandbits(64)))
    base = thetaforms.chi10(tau, SLASH_TRUNC)
    moved = (thetaforms.chi10(siegelspace.moebius_act(m, tau), SLASH_TRUNC)
             * siegelspace.cocycle(m, tau) ** (-10))
    failures = [] if abs(moved - base) <= 1e-7 * abs(base) else ["chi10-weight-10"]
    return failures + _chi10_constant_failures()


def lattice_query(genus, trace):
    table = thetaforms.lattice_theta_coefficients(thetaforms.named_lattice("e8"), genus, trace)
    failures = []
    shadow = table
    for _ in range(genus - 1):
        shadow = fourier.siegel_phi(shadow)
    if shadow.coeffs != _e8_genus1(trace):
        failures.append(f"e8-genus-{genus}-phi" if genus > 1 else "e8-genus-1")
    cusp, witness = fourier.is_cusp_level1(table)
    if cusp or witness is None or not witness.is_singular():
        failures.append("theta-not-cusp")
    return failures


def toroidal_query(rng):
    m = rng.randint(1, 4)
    n = m * rng.randint(1, 4)
    failures = []
    if toroidal.verify_divisor_pullback(n, m, toroidal.principal_cone(2)) != (n // m,) * 3:
        failures.append("pullback-n-over-m")
    fixture = toroidal.principal_cone_fixture(2)
    if fixture.face_counts != {0: 1, 1: 3, 2: 3, 3: 1} or len(fixture.neighbors) != 3 \
            or not fixture.locally_admissible:
        failures.append("principal-cone")
    return failures


QUERIES = {"sp-word": sp_word_query, "action": action_query, "slash": slash_query,
           "toroidal": toroidal_query}


# --- traced-run checks ----------------------------------------------------------

# spans that must run in each workload, and span prefixes that must not
LAYERS_CALLED = {
    "certify-cold": ("thetaforms.short_vectors", "thetaforms.lattice_theta_coefficients",
                     "generaltype.evidence.chi10", "generaltype.evidence.chi18",
                     "generaltype.evidence.schottky", "cli.main"),
    "period-geometry": ("hodge.hodge_metric_matrix", "hodge.hodge_metric_tangent",
                        "hodge.kahler_einstein_check", "hodge.higgs_curvature_identity_check",
                        "siegelspace.borel_embed"),
    "query-mix": ("exact.mat_mul", "exact.det", "symplectic.is_symplectic",
                  "symplectic.random_symplectic", "siegelspace.moebius_act", "siegelspace.cocycle",
                  "thetaforms.theta_constant", "thetaforms.lattice_theta_coefficients",
                  "fourier.siegel_phi", "fourier.is_cusp_level1",
                  "toroidal.verify_divisor_pullback", "toroidal.principal_cone_fixture"),
}
LAYERS_ABSENT = {
    "certify-cold": ("hodge.",),
    "period-geometry": ("exact.", "thetaforms."),
    "query-mix": ("hodge.",),
}


def trace_failures(workload, tracer):
    failures = [f"not-called:{name}" for name in LAYERS_CALLED[workload]
                if not tracer.stats[name][0]]
    failures += [f"called:{name}" for name, (calls, _, _) in tracer.stats.items()
                 if calls and name.startswith(LAYERS_ABSENT[workload])]
    if workload == "query-mix" and tracer.kept:
        failures.append("short_vectors-missed-after-setup")
    if workload == "certify-cold":
        rank16 = [(lattice, vectors) for lattice, bound, vectors in tracer.kept
                  if lattice.rank == 16 and bound == 6]
        if len(rank16) != 2:
            failures.append("rank16-bound6-enumerations")
        for lattice, vectors in rank16:
            norms = np.einsum("ni,ij,nj->n", vectors, np.array(lattice.gram), vectors)
            if np.bincount(norms)[::2].tolist() != rank16_shells(6):
                failures.append(f"vectors-kept:{lattice.name}")
    return failures
