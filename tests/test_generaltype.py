import pytest

from siegelkit.generaltype import (
    CuspFormEvidence,
    _level_one_evidence,
    certify,
    evidence_for,
    weight_to_power,
)


def test_weight_to_power():
    assert weight_to_power(10, 2) == 3          # weight 30 = 10 (2+1)
    assert weight_to_power(18, 3) == 2          # weight 36 = 9 (3+1)
    assert weight_to_power(8, 4) == 5           # weight 40 = 8 (4+1)
    assert weight_to_power(6, 2) == 1           # (g+1) | k0
    assert weight_to_power(12, 3) == 1
    with pytest.raises(ValueError):
        weight_to_power(0, 2)


def test_evidence_validation():
    with pytest.raises(ValueError):
        CuspFormEvidence(2, 1, 10, 1, ("check",))       # 10 not divisible by 3
    with pytest.raises(ValueError):
        CuspFormEvidence(2, 1, 10, 3, ())               # empty record
    # both would certify "N >= 3" from nothing
    with pytest.raises(ValueError):
        CuspFormEvidence(2, 1, 10, 0, ("check",))       # zeroth power
    with pytest.raises(ValueError):
        CuspFormEvidence(2, 1, -3, 1, ("check",))       # negative weight
    ev = CuspFormEvidence(2, 1, 10, 3, ("check",))
    assert ev.total_weight == 30


def test_certify_thresholds():
    ev = CuspFormEvidence(2, 1, 10, 3, ("synthetic",))
    cert = certify(2, 1, ev)
    assert cert.n_bound == 10 and cert.threshold == 10
    assert "N >= 10" in cert.statement

    ev3 = CuspFormEvidence(3, 1, 18, 2, ("synthetic",))
    assert certify(3, 1, ev3).threshold == 9

    ev4 = CuspFormEvidence(4, 1, 8, 5, ("synthetic",))
    assert certify(4, 1, ev4).threshold == 8


def test_threshold_guard_keeps_level_at_least_three():
    # low-weight evidence: the ceil(3 / l) guard takes over
    ev = CuspFormEvidence(2, 1, 6, 1, ("synthetic",))
    cert = certify(2, 1, ev)
    assert cert.n_bound == 2 and cert.threshold == 3
    assert cert.threshold * cert.level >= 3

    ev_l2 = CuspFormEvidence(2, 2, 6, 1, ("synthetic",))
    cert2 = certify(2, 2, ev_l2)
    assert cert2.threshold == 2 and cert2.threshold * 2 >= 3


def test_monotonicity_in_weight():
    thresholds = []
    for k0 in (6, 9, 12, 30):
        e = weight_to_power(k0, 2)
        ev = CuspFormEvidence(2, 1, k0, e, ("synthetic",))
        thresholds.append(certify(2, 1, ev).threshold)
    assert thresholds == sorted(thresholds)


def test_certify_rejects_mismatched_evidence():
    ev = CuspFormEvidence(2, 1, 10, 3, ("synthetic",))
    with pytest.raises(ValueError):
        certify(3, 1, ev)
    with pytest.raises(ValueError):
        certify(2, 2, ev)
    with pytest.raises(ValueError):
        evidence_for("chi99")


def test_chi10_evidence_pipeline():
    ev = evidence_for("chi10")
    assert ev.g == 2 and ev.base_weight == 10 and ev.power == 3
    assert set(ev.verification) == {
        "chi10:diagonal-vanishing",
        "chi10:vanishing-order-2",
        "chi10:slash-invariance-weight-10",
        "chi10:cusp-decay",
    }
    assert certify(2, 1, ev).threshold == 10


def test_evidence_names_every_failed_check():
    checks = [("form:one", False), ("form:two", True), ("form:three", False)]
    with pytest.raises(RuntimeError, match="'form:one', 'form:three'"):
        _level_one_evidence(2, 10, checks)
    ev = _level_one_evidence(2, 10, [("form:one", True), ("form:two", True)])
    assert ev.verification == ("form:one", "form:two") and (ev.level, ev.power) == (1, 3)
