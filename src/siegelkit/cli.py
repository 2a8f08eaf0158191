"""Command-line surface: thin adapters over the library with reproducible,
machine-readable outputs.

Exit codes: 0 all checks pass, 1 a check failed (diagnostics as JSON on
stdout), 2 usage error (a genus past the Hodge checks' JET_GENUS_LIMIT among
them), 3 numerical failure (a failed factorization or solve, or another
runtime failure).  Errors 2 and 3 print a JSON error on stderr.  A fixed
--seed controls every randomized sample.

Every command ends in _emit, the one place that turns a report into an exit
code: 1 when its "pass" key is false, 0 when it is true or absent.  The
verdict comes from the library module that took the measurement: the hodge
reports, the paper's threshold table in generaltype, the pullback and
symmetry checks.  Only metric-check compares against a bound of its own, the
user-set --tolerance, and cusp-check reports "pass" only when --expect-cusp
names the expected answer.  Every leaf command takes --output and writes
JSON; metric-check alone takes --format csv.
"""

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import exact, fourier, generaltype, hodge, siegelspace, thetaforms, toroidal
from .siegelspace import SiegelPoint, random_siegel_point, random_tangent


def _parse_tau(text):
    """A JSON matrix of numbers or [re, im] pairs as a SiegelPoint; ValueError otherwise."""
    data = json.loads(text)
    try:
        rows = [[complex(*entry) if isinstance(entry, list) else complex(entry) for entry in row]
                for row in data]
    except TypeError as err:
        raise ValueError(f"--tau {text} is not a matrix of numbers or [re, im] pairs") from err
    return SiegelPoint(len(data), np.array(rows, dtype=complex))


def _parse_char(text):
    left, right = text.split(";")
    bits1 = tuple(int(c) for c in left.strip())
    bits2 = tuple(int(c) for c in right.strip())
    return thetaforms.ThetaCharacteristic.from_doubled(bits1, bits2)


def _count(text):
    """An argparse type for sizes and sample counts: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def _read_expansion(path):
    """The FourierExpansion stored as JSON at path; ValueError when it cannot be read."""
    try:
        with open(path) as fh:
            return fourier.FourierExpansion.from_json(json.load(fh))
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err.strerror}") from err
    except KeyError as err:
        raise ValueError(f"{path} holds no Fourier expansion: missing key {err}") from err


def _emit(args, payload, as_csv_rows=None):
    """Write the report and return its exit code: 1 when "pass" is false, else 0."""
    if as_csv_rows is not None and args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in as_csv_rows:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=1, sort_keys=True, default=_json_default) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if payload.get("pass", True) else 1


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"not serializable: {type(obj)}")


def _cmd_metric_check(args):
    if not 0 <= args.tolerance < np.inf:      # spread > nan is never true
        raise ValueError(f"--tolerance must be finite and non-negative, got {args.tolerance}")
    rng = np.random.default_rng(args.seed)
    rows = [("tau_id", "direction_id", "bergman", "hodge", "ratio")]
    ratios = []
    for t in range(args.samples):
        tau = random_siegel_point(args.genus, rng)
        for d in range(args.directions):
            x = random_tangent(args.genus, rng)
            berg = siegelspace.bergman_metric(tau, x, x).real
            hdg = hodge.hodge_metric_tangent(tau, x, x).real
            ratio = hdg / berg
            ratios.append(ratio)
            rows.append((t, d, f"{berg:.15g}", f"{hdg:.15g}", f"{ratio:.15g}"))
    spread = (max(ratios) - min(ratios)) / abs(ratios[0])
    payload = {
        "genus": args.genus,
        "samples": len(ratios),
        "ratio_mean": sum(ratios) / len(ratios),
        "relative_spread": spread,
        "pass": spread <= args.tolerance,
    }
    return _emit(args, payload, as_csv_rows=rows)


def _cmd_einstein_check(args):
    rng = np.random.default_rng(args.seed)
    samples = [SiegelPoint.scaled_identity(args.genus)]
    samples += [random_siegel_point(args.genus, rng) for _ in range(args.points - 1)]
    return _emit(args, hodge.kahler_einstein_check(samples))


def _cmd_curvature_check(args):
    return _emit(args, hodge.higgs_curvature_identity_check(SiegelPoint.scaled_identity(args.genus)))


def _cmd_boundary_growth(args):
    radii = [float(r) for r in args.radii.split(",")]
    report = siegelspace.boundary_growth_probe(args.genus, radii)
    report["pass"] = report["bounded"]
    return _emit(args, report)


def _cmd_theta(args):
    char = _parse_char(args.char)
    tau = _parse_tau(args.tau)
    trunc = thetaforms.TruncationParams(radius=args.radius, target=args.target)
    value, tail = thetaforms.theta_constant_with_tail(char, tau, trunc)
    return _emit(args, {
        "char": [list(b) for b in char.doubled()],
        "even": char.is_even,
        "value": value,
        "tail_estimate": tail,
        "radius": args.radius,
    })


def _cmd_lattice_theta(args):
    lattice = thetaforms.named_lattice(args.lattice)
    expansion = thetaforms.lattice_theta_coefficients(lattice, args.genus, args.bound)
    return _emit(args, expansion.to_json())


def _cmd_named_form(args):
    if args.name == "schottky":
        expansion = thetaforms.schottky_chi8_coefficients(args.genus, args.bound)
        payload = expansion.to_json()
        payload["all_zero"] = expansion.is_zero()
        return _emit(args, payload)
    if not args.tau:
        raise ValueError("named-form chi10/chi18 needs --tau")
    tau = _parse_tau(args.tau)
    if args.name == "chi10":
        value = thetaforms.chi10(tau)
    else:
        value = thetaforms.chi18(tau)
    return _emit(args, {"name": args.name, "value": value})


def _cmd_phi(args):
    expansion = _read_expansion(args.input)
    image = fourier.siegel_phi(expansion)
    return _emit(args, image.to_json())


def _cmd_cusp_check(args):
    expansion = _read_expansion(args.input)
    ok, witness = fourier.is_cusp_level1(expansion)
    payload = {"cusp": ok}
    if witness is not None:
        payload["witness_twoA"] = [list(r) for r in witness.twoA]
        payload["witness_coefficient"] = expansion.coefficient(witness)
    if args.expect_cusp is not None:
        payload["pass"] = ok == (args.expect_cusp == "true")
    return _emit(args, payload)


def _cmd_symmetry_check(args):
    expansion = _read_expansion(args.input)
    v = exact.from_json_entries(json.loads(args.v))
    u = exact.from_json_entries(json.loads(args.u))
    ctx = fourier.SlashContext(v, u, level=expansion.level)
    violations = fourier.symmetry_check(expansion, ctx, tol=args.tolerance)
    payload = {
        "violations": [
            {"twoA": [list(r) for r in a.twoA], "residual": res} for a, res in violations
        ],
        "pass": not violations,
    }
    return _emit(args, payload)


def _cmd_toroidal_pullback(args):
    cone = toroidal.principal_cone(2)
    chart = toroidal.monomial_map(args.n, args.m, cone)
    payload = {"n": args.n, "m": args.m,
               "multiplicities": [chart.exponents[i][i] for i in range(len(chart.exponents))],
               "cone_rays": [list(r) for r in cone.rays],
               "exponent_map": [list(r) for r in chart.exponents], "pass": True}
    try:
        toroidal.verify_divisor_pullback(args.n, args.m, cone)
    except AssertionError as err:
        payload.update({"pass": False, "failure": str(err)})
    return _emit(args, payload)


def _cmd_certify(args):
    # every named pipeline yields level-one evidence of its form's degree
    if (generaltype.NAMED_FORM_EVIDENCE[args.form][0], 1) != (args.g, args.l):
        raise ValueError("evidence does not match the requested degree and level")
    evidence = generaltype.evidence_for(args.form)
    return _emit(args, generaltype.certify(args.g, args.l, evidence).to_json())


def _cmd_examples_table(args):
    rows = generaltype.reproduce_example_table()
    payload = {
        "rows": [
            {"g": r["g"], "form": r["form"], "threshold": r["threshold"],
             "statement": r["certificate"].statement,
             "evidence": list(r["certificate"].evidence)}
            for r in rows
        ],
    }
    payload["pass"] = all(generaltype.PAPER_THRESHOLDS[r["g"]] == r["threshold"] for r in rows)
    return _emit(args, payload)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="siegelkit",
        description="Siegel-space geometry, modular-form and general-type checks",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized samples")
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", help="write the report to a file instead of stdout")

    def leaf(subparsers, name, func, summary):
        p = subparsers.add_parser(name, help=summary, parents=[output])
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "metric-check", _cmd_metric_check, "Bergman/Hodge ratio constancy")
    p.add_argument("--genus", type=_count, default=2)
    p.add_argument("--samples", type=_count, default=10)
    p.add_argument("--directions", type=_count, default=2)
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = leaf(sub, "einstein-check", _cmd_einstein_check, "Kaehler closedness and Einstein constant")
    p.add_argument("--genus", type=_count, default=2)
    p.add_argument("--points", type=_count, default=3)

    p = leaf(sub, "curvature-check", _cmd_curvature_check, "Hodge-bundle curvature identity")
    p.add_argument("--genus", type=_count, default=2)

    p = leaf(sub, "boundary-growth", _cmd_boundary_growth, "metric growth in the cusp chart")
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--radii", default="1e-3,3e-4,1e-4,3e-5,1e-5")

    p = leaf(sub, "theta", _cmd_theta, "theta constant with characteristic")
    p.add_argument("--char", required=True, help="doubled characteristic, e.g. '01;10'")
    p.add_argument("--tau", required=True, help="JSON matrix of [re, im] entries")
    p.add_argument("--radius", type=int, default=8)
    p.add_argument("--target", type=float, default=1e-10)

    p = leaf(sub, "lattice-theta", _cmd_lattice_theta, "exact lattice theta coefficients")
    p.add_argument("--lattice", required=True, choices=("e8", "e8e8", "e16"))
    p.add_argument("--genus", type=int, default=1)
    p.add_argument("--bound", type=int, default=2, help="trace bound")

    p = leaf(sub, "named-form", _cmd_named_form, "evaluate chi10/chi18 or expand the theta difference")
    p.add_argument("--name", required=True, choices=("chi10", "chi18", "schottky"))
    p.add_argument("--tau", help="JSON matrix (chi10/chi18)")
    p.add_argument("--genus", type=int, default=2, help="schottky truncation genus")
    p.add_argument("--bound", type=int, default=2, help="schottky trace bound")

    p = leaf(sub, "phi", _cmd_phi, "apply the degree-lowering operator to an expansion")
    p.add_argument("--input", required=True)

    p = leaf(sub, "cusp-check", _cmd_cusp_check, "level-1 singular-coefficient cusp test")
    p.add_argument("--input", required=True)
    p.add_argument("--expect-cusp", type=str.lower, choices=("true", "false"), default=None)

    p = leaf(sub, "symmetry-check", _cmd_symmetry_check, "coefficient symmetry under M(V, U)")
    p.add_argument("--input", required=True)
    p.add_argument("--v", required=True, help="JSON integer matrix V")
    p.add_argument("--u", required=True, help="JSON integer matrix U")
    p.add_argument("--tolerance", type=float, default=1e-9)

    p = sub.add_parser("toroidal", help="toroidal chart checks")
    tsub = p.add_subparsers(dest="toroidal_command", required=True)
    p = leaf(tsub, "verify-pullback", _cmd_toroidal_pullback, "boundary divisor pullback multiplicities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = leaf(sub, "certify", _cmd_certify, "general-type certificate from a named form")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--l", type=int, default=1)
    p.add_argument("--form", required=True, choices=("chi10", "chi18", "schottky"))

    leaf(sub, "examples-table", _cmd_examples_table, "reproduce the three certificates")
    return parser


def _error(err, code):
    print(json.dumps({"error": str(err)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the order matters: TruncationError and NotImplementedError are
    # RuntimeErrors, and LinAlgError is a ValueError
    try:
        return args.func(args)
    except (thetaforms.TruncationError, NotImplementedError) as err:
        return _error(err, 2)
    except (np.linalg.LinAlgError, RuntimeError) as err:
        return _error(err, 3)
    except ValueError as err:
        return _error(err, 2)


if __name__ == "__main__":
    sys.exit(main())
