import json

import numpy as np
import pytest

from siegelkit import generaltype, hodge, thetaforms, toroidal
from siegelkit.cli import main
from siegelkit.siegelspace import SiegelPoint, random_siegel_point
from siegelkit.thetaforms import lattice_theta_coefficients, named_lattice
from siegelkit.fourier import siegel_phi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


def test_toroidal_pullback(capsys, tmp_path):
    code, payload = run(capsys, "toroidal", "verify-pullback", "--n", "4", "--m", "2")
    assert code == 0
    assert payload["multiplicities"] == [2, 2, 2]
    out = tmp_path / "pullback.json"
    code = main(["toroidal", "verify-pullback", "--n", "4", "--m", "2", "--output", str(out)])
    assert code == 0 and capsys.readouterr().out == ""
    assert json.loads(out.read_text()) == payload


def test_toroidal_pullback_failure_is_reported(capsys, monkeypatch):
    generators = toroidal.dual_monoid_generators
    monkeypatch.setattr(toroidal, "dual_monoid_generators", lambda cone, level: generators(cone, 1))
    code, payload = run(capsys, "toroidal", "verify-pullback", "--n", "6", "--m", "2")
    assert code == 1
    assert payload["pass"] is False and payload["multiplicities"] == [1, 1, 1]
    assert "n/m" in payload["failure"]


def test_metric_check_json_and_csv(capsys, tmp_path):
    code, payload = run(capsys, "metric-check", "--samples", "4", "--directions", "1")
    assert code == 0 and payload["pass"]
    assert payload["relative_spread"] <= 1e-8

    out = tmp_path / "metric.csv"
    code = main(["metric-check", "--samples", "2", "--directions", "1",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",") == ["tau_id", "direction_id", "bergman", "hodge", "ratio"]
    assert len(lines) == 3


def test_metric_check_seed_reproducible(capsys):
    _, first = run(capsys, "--seed", "5", "metric-check", "--samples", "3", "--directions", "1")
    _, second = run(capsys, "--seed", "5", "metric-check", "--samples", "3", "--directions", "1")
    assert first == second


def test_theta_subcommand(capsys):
    code, payload = run(capsys, "theta", "--char", "0;0", "--tau", "[[[0,1]]]",
                        "--radius", "15")
    assert code == 0
    assert payload["value"]["re"] == pytest.approx(1.0864348112, abs=1e-9)
    assert payload["even"] is True


def test_lattice_theta_matches_library(capsys, tmp_path):
    out = tmp_path / "e8g1.json"
    code = main(["lattice-theta", "--lattice", "e8", "--genus", "1", "--bound", "2",
                 "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == lattice_theta_coefficients(named_lattice("e8"), 1, 2).to_json()


def test_phi_round_trip(capsys, tmp_path):
    src = tmp_path / "e8g2.json"
    main(["lattice-theta", "--lattice", "e8", "--genus", "2", "--bound", "2",
          "--output", str(src)])
    code, payload = run(capsys, "phi", "--input", str(src))
    assert code == 0
    expected = siegel_phi(lattice_theta_coefficients(named_lattice("e8"), 2, 2)).to_json()
    assert payload == expected


def test_cusp_check(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    main(["lattice-theta", "--lattice", "e8", "--genus", "2", "--bound", "2",
          "--output", str(theta_file)])
    code, payload = run(capsys, "cusp-check", "--input", str(theta_file))
    assert code == 0 and payload["cusp"] is False and "pass" not in payload
    assert "witness_twoA" in payload
    code, payload = run(capsys, "cusp-check", "--input", str(theta_file), "--expect-cusp", "true")
    assert code == 1 and payload["pass"] is False
    code, payload = run(capsys, "cusp-check", "--input", str(theta_file), "--expect-cusp", "false")
    assert code == 0 and payload["pass"] is True

    schottky_file = tmp_path / "schottky.json"
    main(["named-form", "--name", "schottky", "--genus", "2", "--bound", "2",
          "--output", str(schottky_file)])
    data = json.loads(schottky_file.read_text())
    assert data["all_zero"] is True
    del data["all_zero"]
    schottky_file.write_text(json.dumps(data))
    code, payload = run(capsys, "cusp-check", "--input", str(schottky_file),
                        "--expect-cusp", "true")
    assert code == 0 and payload["cusp"] is True and payload["pass"] is True


def test_symmetry_check_cli(capsys, tmp_path):
    theta_file = tmp_path / "theta.json"
    main(["lattice-theta", "--lattice", "e8", "--genus", "2", "--bound", "2",
          "--output", str(theta_file)])
    code, payload = run(capsys, "symmetry-check", "--input", str(theta_file),
                        "--v", "[[1,1],[0,1]]", "--u", "[[0,0],[0,0]]")
    assert code == 0 and payload["pass"]


def test_certify_chi10(capsys):
    code, payload = run(capsys, "certify", "--g", "2", "--l", "1", "--form", "chi10")
    assert code == 0
    assert payload["threshold"] == 10
    assert payload["evidence"]


def test_certify_degree_mismatch_runs_no_pipeline(capsys, monkeypatch):
    def pipeline():
        raise AssertionError("the degree check must fire before the evidence pipeline")

    monkeypatch.setitem(generaltype.NAMED_FORM_EVIDENCE, "chi18", (3, pipeline))
    monkeypatch.setitem(generaltype.NAMED_FORM_EVIDENCE, "chi10", (2, pipeline))
    # a degree the form does not have, and a level no named pipeline serves
    for argv in (["--g", "2", "--form", "chi18"], ["--g", "2", "--l", "2", "--form", "chi10"]):
        assert main(["certify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree and level" in json.loads(captured.err)["error"]


def test_hodge_checks_emit_the_library_verdict(capsys):
    samples = [SiegelPoint.scaled_identity(2), random_siegel_point(2, np.random.default_rng(1))]
    code, payload = run(capsys, "--seed", "1", "einstein-check", "--points", "2")
    assert code == 0 and payload == hodge.kahler_einstein_check(samples)
    code, payload = run(capsys, "curvature-check")
    assert code == 0
    assert payload == hodge.higgs_curvature_identity_check(SiegelPoint.scaled_identity(2))


def test_usage_errors(capsys):
    for argv in (["no-such-command"],
                 # only metric-check has a CSV form
                 ["lattice-theta", "--lattice", "e8", "--format", "csv"],
                 # a typo is not read as false
                 ["cusp-check", "--input", "expansion.json", "--expect-cusp", "ture"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
    # chi18 needs a degree-3 point
    code = main(["named-form", "--name", "chi18", "--tau", "[[[0,1]]]"])
    assert code == 2
    capsys.readouterr()
    code = main(["named-form", "--name", "chi10"])
    assert code == 2
    assert "--tau" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize("argv", [
    ["theta", "--char", "0;0", "--tau", "5"],
    ["theta", "--char", "0;0", "--tau", "[[null]]"],
    ["theta", "--char", "0;0", "--tau", "[[[1]]]"],
    ["symmetry-check", "--input", "TABLE", "--v", "5", "--u", "[[0,0],[0,0]]"],
    ["symmetry-check", "--input", "TABLE", "--v", '[["1/0"]]', "--u", "[[0,0],[0,0]]"],
    ["cusp-check", "--input", "MISSING"],
    ["phi", "--input", "NO_COEFFS"],
    # 2A = (2.5) is not an index and must not be read as (2); nor is 2A = 5
    ["phi", "--input", "HALF"],
    ["cusp-check", "--input", "HALF"],
    ["cusp-check", "--input", "SCALAR"],
    # a coefficient is a pair of finite JSON numbers: neither "5", true nor NaN
    ["cusp-check", "--input", "STRING"],
    ["cusp-check", "--input", "BOOL"],
    ["cusp-check", "--input", "NAN"],
    # the file must be an object whose coeffs are a list of objects
    ["cusp-check", "--input", "COEFFS_NUMBER"],
    ["cusp-check", "--input", "COEFFS_OF_NUMBERS"],
    ["cusp-check", "--input", "LIST"],
    # genus, level, weight and trace_bound are JSON integers
    ["cusp-check", "--input", "LEVEL_STRING"],
    ["cusp-check", "--input", "TRACE_STRING"],
    ["symmetry-check", "--input", "TRACE_STRING", "--v", "[[1]]", "--u", "[[0]]"],
    ["cusp-check", "--input", "GENUS_BOOL"],
    ["cusp-check", "--input", "GENUS_NEGATIVE"],
    # true and false are not the integers 1 and 0
    ["symmetry-check", "--input", "GENUS_1", "--v", "[[true]]", "--u", "[[false]]"],
    ["cusp-check", "--input", "TWOA_BOOL"],
    # a NaN target would switch the certified-tail guard off
    ["theta", "--char", "0;0", "--tau", "[[[0,0.01]]]", "--radius", "1", "--target", "nan"],
])
def test_malformed_input_exits_2(capsys, tmp_path, argv):
    table = lattice_theta_coefficients(named_lattice("e8"), 2, 1).to_json()
    genus_1 = {"genus": 1, "level": 1, "weight": 4, "trace_bound": 4,
               "coeffs": [{"twoA": [[2]], "re": 240, "im": 0}]}
    contents = {"TABLE": table, "NO_COEFFS": {k: v for k, v in table.items() if k != "coeffs"},
                "COEFFS_NUMBER": {**genus_1, "coeffs": 5}, "COEFFS_OF_NUMBERS": {**genus_1, "coeffs": [5]},
                "LIST": [genus_1], "LEVEL_STRING": {**genus_1, "level": "1"},
                "TRACE_STRING": {**genus_1, "trace_bound": "x"}, "GENUS_BOOL": {**genus_1, "genus": True},
                "GENUS_NEGATIVE": {**genus_1, "genus": -1, "coeffs": []},
                "GENUS_1": genus_1}
    for key, two_a, re in (("HALF", [[2.5]], 1), ("SCALAR", 5, 1), ("STRING", [[2]], "5"),
                           ("BOOL", [[2]], True), ("NAN", [[0]], float("nan")),
                           ("TWOA_BOOL", [[True]], 1)):
        contents[key] = {**genus_1, "coeffs": [{"twoA": two_a, "re": re, "im": 0}]}
    files = {key: tmp_path / f"{key.lower()}.json" for key in [*contents, "MISSING"]}
    for key, data in contents.items():
        files[key].write_text(json.dumps(data))
    assert main([str(files.get(arg, arg)) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in json.loads(captured.err)


@pytest.mark.parametrize("trace_bound, code", [(4, 1), (1, 2), (-1, 2)])
def test_symmetry_check_cannot_be_switched_off_by_the_trace_bound(capsys, tmp_path, trace_bound, code):
    # V = -1 at odd weight forces c(A) = -c(A); a bound below Tr(2A) = 4 would skip every index
    table = {"genus": 1, "level": 1, "weight": 5, "trace_bound": trace_bound,
             "coeffs": [{"twoA": [[2]], "re": 1, "im": 0}, {"twoA": [[4]], "re": 1, "im": 0}]}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    assert main(["symmetry-check", "--input", str(path), "--v", "[[-1]]", "--u", "[[0]]"]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert len(json.loads(captured.out)["violations"]) == 2
    else:
        assert captured.out == ""
        assert "trace_bound" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("genus, v, u, message", [
    (1, "[[1,0],[0,1]]", "[[0]]", "blocks must all be 2 x 2"),
    (2, "[[1]]", "[[0]]", "degree 1 but the expansion has genus 2"),
    (1, "[[1,0],[0,1]]", "[[0,0],[0,0]]", "degree 2 but the expansion has genus 1"),
])
def test_symmetry_check_refuses_a_context_of_another_size(capsys, tmp_path, genus, v, u, message):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(lattice_theta_coefficients(named_lattice("e8"), genus, 2).to_json()))
    assert main(["symmetry-check", "--input", str(path), "--v", v, "--u", u]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in json.loads(captured.err)["error"]


@pytest.mark.parametrize("argv, flag", [
    (["einstein-check", "--points", "-3"], "--points"),
    (["einstein-check", "--points", "0"], "--points"),
    (["metric-check", "--samples", "0"], "--samples"),
    (["metric-check", "--directions", "0"], "--directions"),
    (["einstein-check", "--genus", "0"], "--genus"),
    (["metric-check", "--genus", "0"], "--genus"),
    (["curvature-check", "--genus", "0"], "--genus"),
])
def test_counts_below_one_are_usage_errors(capsys, argv, flag):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be at least 1" in captured.err


def test_rank16_trace_guard_enumerates_nothing(capsys, monkeypatch):
    def enumerate_vectors(*args):
        raise AssertionError("the trace guard must fire before any enumeration")

    monkeypatch.setattr(thetaforms, "short_vectors", enumerate_vectors)
    monkeypatch.setattr(thetaforms, "_enumerate", enumerate_vectors)
    assert main(["lattice-theta", "--lattice", "e16", "--bound", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trace_bound <= 4" in json.loads(captured.err)["error"]


def test_rank16_genus2_trace_guard_enumerates_nothing(capsys, monkeypatch):
    def enumerate_vectors(*args):
        raise AssertionError("the genus-2 trace guard must fire before any enumeration")

    monkeypatch.setattr(thetaforms, "short_vectors", enumerate_vectors)
    monkeypatch.setattr(thetaforms, "_enumerate", enumerate_vectors)
    assert main(["lattice-theta", "--lattice", "e16", "--genus", "2", "--bound", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "trace_bound <= 3 at genus 2" in json.loads(captured.err)["error"]


def test_tally_budget_guard_tallies_nothing(capsys, monkeypatch):
    def tally(*args):
        raise AssertionError("the tuple budget must fire before any tuple is tallied")

    monkeypatch.setattr(thetaforms, "combinations", tally)
    assert main(["lattice-theta", "--lattice", "e8", "--genus", "3", "--bound", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4907520000 tuples" in json.loads(captured.err)["error"]


def test_theta_box_guard_builds_nothing(capsys, monkeypatch):
    def build(*args):
        raise AssertionError("the theta box guard must fire before any box is built")

    monkeypatch.setattr(thetaforms, "_theta_layout", build)
    assert main(["theta", "--char", "000;000", "--tau", "[[[0,1],0,0],[0,[0,1],0],[0,0,[0,1]]]",
                 "--radius", "1000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "32072054014 rows" in json.loads(captured.err)["error"]


@pytest.mark.parametrize("error, code", [
    (np.linalg.LinAlgError("Matrix is not positive definite"), 3),
    (np.linalg.LinAlgError("Singular matrix"), 3),
    (RuntimeError("no convergence"), 3),
    (thetaforms.TruncationError("radius too small"), 2),
])
def test_numerical_failure_exit_code(capsys, monkeypatch, error, code):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(hodge, "hodge_metric_tangent", fail)
    assert main(["metric-check", "--samples", "1", "--directions", "1"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": str(error)}


def test_boundary_growth_cli(capsys):
    code, payload = run(capsys, "boundary-growth", "--genus", "1")
    assert code == 0 and payload["pass"]


@pytest.mark.parametrize("genus, radii", [("1", "1e-3"), ("2", "1e-3,1e-3")])
def test_boundary_growth_cli_refuses_one_radius(capsys, genus, radii):
    assert main(["boundary-growth", "--genus", genus, "--radii", radii]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two distinct radii" in json.loads(captured.err)["error"]
