"""Tests for the three-case classifier and its component checks."""

import json
import math

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etakit.cli import evaluate_recipe
from etakit import qseries
from etakit.qseries import PrecisionError, QExp24, eta_series, v_op
from etakit.spaces import membership_depth
from etakit.halfint import HalfIntForm, certify, eta_form, theta_lift
from etakit.classify import (
    CaseReport,
    CheckResult,
    check_multiplier,
    check_two_classes,
    classify,
    odd_lambda_check,
    small_lambda_check,
)

from oracles import eisenstein_coeffs


def _squarefree_part(n):
    return math.prod(p for p, e in sympy.factorint(n).items() if e % 2)


def _square_classes(f):
    """Reference grouping of the support by squarefree part, through sympy."""
    classes = {}
    for n in f.support():
        classes.setdefault(_squarefree_part(n), []).append(n)
    return classes


# === component checks ===


def test_check_result_shape():
    ok = CheckResult("congruence", True)
    assert bool(ok)
    assert ok.to_dict() == {"name": "congruence", "pass": True, "witness": None}
    bad = CheckResult("congruence", False, 25)
    assert not bad
    assert bad.to_dict()["witness"] == 25


def test_two_classes_on_eta():
    ell = 5
    classes, res = check_two_classes(eta_series(24 * 10, ell))
    assert set(classes) == {1}
    assert res.passed and res.witness is None


def test_two_classes_on_eta_ell_power():
    ell = 5
    f = (eta_series(24 * 30, ell) ** ell).truncate(24 * 20)
    classes, res = check_two_classes(f)
    assert set(classes) == {ell}
    assert res.passed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 13, 97, 1009, 3037000507)),
    st.lists(st.integers(1, 60), max_size=12),
    st.lists(st.integers(1, 4000), max_size=12),
)
def test_two_classes_match_a_factoring_reference(ell, roots, others):
    # squares, ell times squares, ell^2 and ell^3 times squares, and any
    # index, below 10^5 so that the dense series stays small
    terms = {n: 1 for n in others}
    for k in roots:
        for n in (k * k, ell * k * k, ell**2 * k * k, ell**3 * k * k):
            if n < 10**5:
                terms[n] = 2
    f = QExp24.from_dict(terms, prec=max(terms, default=0) + 1, modulus=ell)
    classes, _ = check_two_classes(f)
    want = _square_classes(f)
    assert classes == want and list(classes) == list(want)


def test_two_classes_of_case_three_factor_nothing(monkeypatch):
    # at ell = 1009 every support index is a square or ell times one
    ell, j = 1009, 252
    form = evaluate_recipe(f"{pow(24, 2 * j, ell)}*theta^{j}(eta) + eta^{ell}", ell)
    want = _square_classes(form.series)
    monkeypatch.setattr(qseries, "squarefree_part", None)
    classes, res = check_two_classes(form)
    assert classes == want and list(classes) == list(want) == [1, ell]
    assert res.passed


def test_two_classes_rejects_stray_class():
    ell = 5
    f = QExp24.from_dict({1: 1, 2: 3, 50: 1}, prec=60, modulus=ell)
    classes, res = check_two_classes(f)
    assert set(classes) == {1, 2}
    assert not res.passed
    assert res.witness == 2


@pytest.mark.parametrize(
    "ell, residue, terms",
    [
        # two extraneous classes, 3 (12, 27) and 2 (18, 32), among classes 1 and ell
        (5, None, {1: 1, 4: 2, 5: 1, 9: 3, 12: 1, 18: 4, 20: 2, 27: 1, 32: 3}),
        # three: 11 (11, 44), 2 (18, 50) and 3 (27, 48), interleaved
        (5, None, {1: 2, 5: 1, 11: 1, 18: 3, 27: 2, 44: 4, 45: 1, 48: 1, 50: 2}),
        # three on the strand n = 1 mod 24: 145 = 5 * 29, 193, 217 = 7 * 31
        (13, 1, {1: 1, 49: 2, 145: 3, 169: 1, 193: 4, 217: 5, 289: 6, 145 * 25: 7}),
    ],
)
def test_two_classes_witness_is_the_first_extraneous_index(ell, residue, terms):
    f = QExp24.from_dict(terms, prec=max(terms) + 1, modulus=ell, residue=residue)
    first = min(n for n in terms if _squarefree_part(n) not in (1, ell))
    classes, res = check_two_classes(f)
    assert len(set(classes) - {1, ell}) >= 2
    assert not res.passed and res.witness == first


def test_two_classes_accepts_certified_form():
    g = eta_form(60, 7)
    classes, res = check_two_classes(g)
    assert res.passed and set(classes) == {1}


def test_multiplier_check():
    assert check_multiplier(1, 5).passed
    assert check_multiplier(5, 5).passed
    assert check_multiplier(25, 5).passed  # 25 = 1 mod 24
    assert check_multiplier(29, 5).passed  # 29 = 5 mod 24
    res = check_multiplier(7, 5)
    assert not res.passed and res.witness == 7
    assert check_multiplier(7, 7).passed
    assert not check_multiplier(11, 7).passed


def test_odd_lambda_check():
    ell = 5
    # support on multiples of ell is exactly what theta kills
    f = v_op(eta_series(60, ell), ell)
    res = odd_lambda_check(f, lam=3)
    assert res.passed
    g = eta_series(60, ell)
    res = odd_lambda_check(g, lam=1)
    assert not res.passed
    assert res.witness == 1  # theta(eta) starts at index 1
    with pytest.raises(ValueError):
        odd_lambda_check(g, lam=2)


def test_small_lambda_check_eta_multiple():
    ell = 7
    g = certify(eta_series(60, ell).scale(3), 0, 1)
    res, c = small_lambda_check(g)
    assert res.passed and c == 3


def test_small_lambda_check_failures():
    ell = 7
    f = eta_series(60, ell)
    res, c = small_lambda_check(f, lam=1, r=1)
    assert not res.passed and c is None
    res, c = small_lambda_check((f ** 5).truncate(60), lam=0, r=5)
    assert not res.passed and c is None
    # not a scalar multiple: differs from 1 * eta at index 49
    g = f + QExp24.from_dict({49: 1}, prec=60, modulus=ell, residue=1)
    res, c = small_lambda_check(g, lam=0, r=1)
    assert not res.passed and res.witness == 49 and c is None
    with pytest.raises(ValueError):
        small_lambda_check(f, lam=3, r=1)  # at (ell-1)/2, out of range
    with pytest.raises(ValueError):
        small_lambda_check(QExp24.zero(30, modulus=ell), lam=0, r=1)


# === report serialization ===


def test_case_report_dict_shape():
    g = theta_lift(eta_form(24 * 10, 5))
    rep = classify(g)
    d = rep.to_dict()
    assert list(d) == ["case", "a1", "al", "r_mod_24", "lambda_mod",
                       "hypothesis_ok", "depth", "checks"]
    assert [c["name"] for c in d["checks"]] == [
        "two_square_classes", "multiplier", "congruence"]
    parsed = json.loads(rep.to_json())
    assert parsed == d


# === classify: the three cases and the fallout bucket ===


def test_classify_case_one():
    ell = 5
    g = theta_lift(eta_form(24 * 10, ell))
    rep = classify(g)
    assert rep.case == "1"
    assert rep.a1 == 4  # 1/24 mod 5
    assert rep.al == 0
    assert rep.r_mod_24 == 1
    assert rep.lambda_mod == (ell + 1) % (ell - 1)
    assert rep.hypothesis_ok
    assert rep.depth == 25
    assert all(c.passed for c in rep.checks)


def test_classify_case_one_iterated():
    # second lift crosses the weight hypothesis boundary at ell = 5 but
    # the congruence still pins the case
    ell = 5
    g = theta_lift(theta_lift(eta_form(24 * 12, ell)))
    rep = classify(g)
    assert rep.case == "1"
    assert rep.a1 == 1  # 24^-2 mod 5
    assert rep.lambda_mod == 0
    assert not rep.hypothesis_ok


def test_classify_case_two():
    for ell in (5, 7, 11):
        w, depth = membership_depth((ell - 1) // 2, ell)
        f = (eta_series(depth + 24 * ell, ell) ** ell).truncate(depth)
        g = certify(f, (ell - 1) // 2, ell)
        rep = classify(g)
        assert rep.case == "2", ell
        assert rep.a1 == 0
        assert rep.al == 1
        assert rep.r_mod_24 == ell % 24
        assert rep.lambda_mod == (ell - 1) // 2
        assert rep.hypothesis_ok


def test_classify_zero():
    ell = 5
    g = certify(QExp24.zero(60, modulus=ell, residue=1), 0, 1)
    rep = classify(g)
    assert rep.case == "zero"
    assert rep.a1 == 0 and rep.al == 0
    assert rep.checks[-1].passed


def test_classify_boundary_power_unclassified():
    # eta^(ell^2) at ell = 5: both distinguished coefficients vanish but
    # the series does not, so the congruence fails with witness 25
    ell = 5
    lam, r = 12, 25
    w, depth = membership_depth(lam, r)
    f = (eta_series(depth + 24 * 25, ell) ** 25).truncate(depth)
    g = certify(f, lam, r)
    rep = classify(g)
    assert rep.case == "unclassified"
    assert rep.a1 == 0 and rep.al == 0
    assert not rep.hypothesis_ok  # 2*12 + 1 = 25 = ell^2 exactly
    congruence = rep.checks[-1]
    assert not congruence.passed
    assert congruence.witness == 25


def test_classify_multiplier_failure():
    # eta^7 * E4 mod 5 is certified at r = 7, outside {1, ell mod 24}
    ell = 5
    w, depth = membership_depth(7, 7)
    e4 = QExp24(eisenstein_coeffs(depth + 24, 4), depth + 24, ell, residue=0)
    f = (eta_series(depth + 24 * 8, ell) ** 7) * e4
    g = certify(f.truncate(depth), 7, 7)
    rep = classify(g)
    assert rep.case == "unclassified"
    assert not rep.checks[1].passed  # multiplier
    assert rep.checks[1].witness == 7


def test_classify_validation():
    ell = 5
    with pytest.raises(TypeError):
        classify(eta_series(60, ell))
    g = eta_form(60, ell)
    # precision below the comparison depth is an error, not a verdict
    short = HalfIntForm(g.series.truncate(20), 0, 1, g.certificate)
    with pytest.raises(PrecisionError):
        classify(short)


def test_classify_case_one_respects_congruence_not_just_shape():
    # right shape (a1 != 0, al = 0, r0 = 1, even lam) but wrong tail:
    # must land in unclassified via the congruence witness
    ell = 5
    w, depth = membership_depth(12, 1)
    desc_prec = depth + 24
    e = eta_series(desc_prec, ell)
    delta_part = (e ** 25).truncate(depth)  # eta * delta, coeff(1) = 0
    f = (e.truncate(depth) + delta_part.scale(2))
    g = certify(f, 12, 1)
    rep = classify(g)
    assert rep.a1 == 1
    assert rep.case == "unclassified"
    assert not rep.checks[-1].passed
    assert rep.checks[-1].witness == 25
