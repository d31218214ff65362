"""Tests for the three-case classifier and its component checks."""

import json
import math
import random

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etakit.cli import evaluate_recipe, load_scenarios
from etakit import qseries
from etakit.qseries import PrecisionError, QExp24, eta_series
from etakit.spaces import MembershipCertificate, dims, membership_depth
from etakit.halfint import (
    HalfIntForm,
    canonical_t1,
    canonical_t2,
    certify,
    eta_form,
    theta_lift,
)
from etakit.classify import (
    CaseReport,
    CheckResult,
    check_multiplier,
    check_two_classes,
    classify,
)

from oracles import eisenstein_coeffs, eta_space_oracle, kronecker_oracle, square_class_kernel
from test_strands import RINGS


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


def test_a_constant_term_is_its_own_class_and_the_witness():
    # 0 has no squarefree part: index 0 is the class 0, outside {1, ell}
    f = QExp24.from_dict({0: 1, 24: 2}, 48, 5, 0)
    assert qseries.support_square_classes(f) == {0: [0], 6: [24]}
    classes, res = check_two_classes(f)
    assert classes == {0: [0], 6: [24]}
    assert not res.passed and res.witness == 0


def test_two_classes_on_eta_ell_power():
    ell = 5
    f = (eta_series(24 * 30, ell) ** ell).truncate(24 * 20)
    classes, res = check_two_classes(f)
    assert set(classes) == {ell}
    assert res.passed


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 13, 97, 1009, 3037000507)),
    st.integers(0, 23),
    st.lists(st.integers(1, 60), max_size=12),
    st.lists(st.integers(0, 4000), max_size=12),
)
def test_two_classes_match_a_factoring_reference(ell, r, roots, others):
    # squares, ell times squares, ell^2 and ell^3 times squares, and any
    # positive index, on the class r mod 24 and below 10^5 so that the
    # dense series stays small
    terms = {r + 24 * m: 1 for m in others if r + 24 * m}
    for k in roots:
        for n in (k * k, ell * k * k, ell**2 * k * k, ell**3 * k * k):
            if n < 10**5 and n % 24 == r:
                terms[n] = 2
    f = QExp24.from_dict(terms, prec=max(terms, default=0) + 1, modulus=ell, residue=r)
    classes, _ = check_two_classes(f)
    want = _square_classes(f)
    assert classes == want and list(classes) == list(want)


def test_two_classes_of_case_three_factor_nothing(monkeypatch):
    # at ell = 1009 every support index is a square or ell times one
    ell, j = 1009, 252
    form = evaluate_recipe(f"{pow(24, 2 * j, ell)}*theta^{j}(eta) + eta^{ell}", ell)
    want = _square_classes(form.series)
    monkeypatch.setattr(qseries, "squarefree_part", None)
    classes, res = check_two_classes(form.series)
    assert classes == want and list(classes) == list(want) == [1, ell]
    assert res.passed


def test_two_classes_rejects_stray_class():
    # on the class 5 mod 24: ell = 5 times squares and the prime 29
    ell = 5
    f = QExp24.from_dict({5: 1, 29: 3, 125: 1}, prec=130, modulus=ell, residue=5)
    classes, res = check_two_classes(f)
    assert set(classes) == {5, 29}
    assert not res.passed
    assert res.witness == 29


@pytest.mark.parametrize(
    "ell, residue, terms",
    [
        # on the strand n = 5 mod 24, two extraneous classes, 53 (53, 53 * 25)
        # and 29 (29 * 25), among the class ell (5, 125, 245)
        (5, 5, {5: 1, 53: 2, 125: 1, 245: 3, 29 * 25: 4, 53 * 25: 1}),
        # three: 77 = 7 * 11 (77, 77 * 25), 101 and 221 = 13 * 17, interleaved
        (5, 5, {5: 2, 77: 1, 101: 3, 125: 1, 221: 2, 245: 1, 77 * 25: 4}),
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


def test_multiplier_check():
    assert check_multiplier(1, 5).passed
    assert check_multiplier(5, 5).passed
    assert check_multiplier(25, 5).passed  # 25 = 1 mod 24
    assert check_multiplier(29, 5).passed  # 29 = 5 mod 24
    res = check_multiplier(7, 5)
    assert not res.passed and res.witness == 7
    assert check_multiplier(7, 7).passed
    assert not check_multiplier(11, 7).passed


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


# === the congruence verdict against the canonical series ===


def _reference_congruence(series, lam, depth):
    """(passed, witness) of series against a1 T1 + al T2 below depth, built as QExp24 series."""
    ell = series.modulus
    a1, al = series.coeff(1), (series.coeff(ell) if ell < series.prec else 0)
    t1_lam = 0 if 2 * lam + 1 < ell * ell and lam % (ell - 1) == 0 else lam
    target = QExp24.zero(depth, ell, series.residue)
    if a1:
        target = target + canonical_t1(t1_lam, ell, depth).scale(a1)
    if al:
        target = target + canonical_t2(ell, depth).scale(al)
    bad = series.first_difference(target, depth)
    return bad is None, bad


def _square_terms(ell, prec, a1, al, lam):
    """{n: c} of a1 sum (12|n) n^lam q^(n^2/24) + al sum (12|n) q^(ell n^2/24), by Python pow."""
    terms = {}
    for n in range(1, math.isqrt(prec - 1) + 1):
        if math.gcd(n, 6) == 1:
            chi = kronecker_oracle(12, n)
            if a1:
                terms[n * n] = a1 * chi * pow(n, lam, ell)
            if al and ell * n * n < prec:
                terms[ell * n * n] = al * chi
    return terms


@pytest.mark.parametrize("ell", RINGS + (73, 2**61 - 1))
def test_congruence_verdict_matches_the_canonical_series(ell):
    # random a1 and al on each class that can hold them, the form's lam or
    # another one in the series, and a perturbed entry or none: classify's
    # verdict and witness must be those of the canonical series reference
    rng = random.Random(ell)
    shapes = [(1, True, ell % 24 == 1), (ell % 24, ell % 24 == 1, True)]
    outcomes = set()
    for trial in range(24):
        r0, with_a1, with_al = shapes[trial % 2]
        lam = rng.choice([0, ell - 1, 2 * (ell - 1), (ell - 1) // 2, 2 * rng.randrange(1, 10**6),
                          rng.randrange(10**6)])
        depth = rng.randrange(r0 + 72, 600)
        prec = depth + rng.randrange(0, 50)
        a1, al = rng.randrange(1, ell) if with_a1 else 0, rng.randrange(1, ell) if with_al else 0
        t1_lam = 0 if 2 * lam + 1 < ell * ell and lam % (ell - 1) == 0 else lam
        terms = _square_terms(ell, prec, a1, al, rng.choice([t1_lam, t1_lam, lam + 1]))
        if rng.random() < 0.5:  # one more term on the class, past index ell
            n = r0 + 24 * rng.randrange(2, len(range(r0, prec, 24)))
            terms[n] = terms.get(n, 0) + rng.randrange(1, ell)
        series = QExp24.from_dict(terms, prec, ell, r0)
        form = HalfIntForm(series, lam, r0, MembershipCertificate(series.values[:0], depth, 0))
        rep = classify(form)
        assert (rep.a1, rep.al) == (series.coeff(1), series.coeff(ell) if ell < prec else 0)
        congruence = rep.checks[-1]
        want = _reference_congruence(series, lam, depth)
        assert (congruence.passed, congruence.witness) == want, (trial, lam, depth)
        outcomes.add(want[0])
    assert outcomes == {True, False}


def test_the_verdict_path_builds_no_series_through_the_public_constructor(monkeypatch):
    # every corpus form classifies the same with QExp24.__init__ refused:
    # classify writes its target on a strand, never through the constructor;
    # the negative control builds no form
    scenarios = [sc for sc in load_scenarios() if sc["expect"]["case"] != "refused"]
    forms = [evaluate_recipe(sc["recipe"], sc["ell"], sc.get("prec")) for sc in scenarios]
    reports = [classify(form).to_dict() for form in forms]
    assert [rep["case"] for rep in reports] == [sc["expect"]["case"] for sc in scenarios]

    def refuse(*args, **kwargs):
        raise AssertionError("the verdict path called the public constructor")

    monkeypatch.setattr(QExp24, "__init__", refuse)
    assert [classify(form).to_dict() for form in forms] == reports


# === the converse: every form on the classes {1, ell} reaches a case ===


def _strand_series(strand, ell, r0):
    """The series whose strand r0 holds strand, to just past its last entry."""
    prec = r0 + 24 * (len(strand) - 1) + 1
    return QExp24.from_dict(dict(zip(range(r0, prec, 24), strand)), prec, ell, r0)


def _paper_case(ell, lam, r0, strand):
    """The paper's case for a strand of the weight lam + 1/2 space, or unclassified.

    The strand must equal a1 T1 + al T2 at every coefficient it has, a1
    and al read at indices 1 and ell.  T1 is T1(lam), the shape of
    Theta^j eta up to a scalar, or at lam = 0 (mod ell - 1) also
    T1(0) = eta, the shape of eta E_(ell-1)^k.
    """
    f = _strand_series(strand, ell, r0)
    prec = f.prec
    a1, al = f.coeff(1), (f.coeff(ell) if ell < prec else 0)
    half = lam % (ell - 1) == (ell - 1) // 2
    for t1_lam in {lam, 0} if lam % (ell - 1) == 0 else {lam}:
        target = QExp24.zero(prec, ell, r0)
        if a1:
            target = target + canonical_t1(t1_lam, ell, prec).scale(a1)
        if al:
            target = target + canonical_t2(ell, prec).scale(al)
        if f.first_difference(target, prec) is not None:
            continue
        if a1 and not al and lam % 2 == 0:
            return "1"
        if al and not a1 and half:
            return "2"
        if a1 and al and half:
            return "3"
    return "unclassified"


def _classify_strand(strand, ell, lam, r0):
    """classify's case for a strand, certified at every coefficient it has."""
    f = _strand_series(strand, ell, r0)
    return classify(certify(f, lam, r0, f.prec)).case


def _converse(ell, lam, r0, extra=(2, 3, 5, 6)):
    """Kernel size, and one entry per kernel form whose case classify misses.

    The kernel is sieved on max(4 dim + 40, 120) strand entries.  Every
    kernel vector, and the sum of two, must have a case in the paper.
    """
    L = max(4 * dims(lam + (1 - r0) // 2)[0] + 40, 120)
    kernel = square_class_kernel(ell, lam, r0, {1, ell}, L)
    assert len(kernel) <= 2, (ell, lam, r0)
    # finitely many classes: allowing more of them admits no other form
    assert square_class_kernel(ell, lam, r0, {1, ell, *extra}, L) == kernel, (ell, lam, r0)
    sums = [[(x + y) % ell for x, y in zip(*kernel)]] if len(kernel) == 2 else []
    misses = []
    for strand in kernel + sums:
        paper = _paper_case(ell, lam, r0, strand)
        assert paper != "unclassified", (ell, lam, r0)
        if _classify_strand(strand, ell, lam, r0) != paper:
            misses.append((ell, lam, r0))
    return len(kernel), misses


@pytest.mark.parametrize("ell, lam, r0", [(5, 12, 1), (13, 31, 7), (11, 5, 11)])
def test_square_class_kernel_with_every_class_allowed_is_the_space(ell, lam, r0):
    # nothing is constrained: the kernel is all of eta^r0 * M_w, and etakit
    # certifies each of its vectors at every coefficient
    L = 120
    kernel = square_class_kernel(ell, lam, r0, range(24 * L + 24), L)
    assert len(kernel) == dims(lam + (1 - r0) // 2)[0] > 0
    for strand in kernel:
        f = _strand_series(strand, ell, r0)
        certify(f, lam, r0, f.prec)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.data())
def test_square_class_kernel_with_every_class_allowed_is_the_oracle_basis(data):
    # with nothing constrained the kernel is the space in reduced echelon
    # form, which is unique: eta_space_oracle's basis, read on the strand
    ell = data.draw(st.sampled_from((5, 7, 11, 13)))
    r0 = data.draw(st.sampled_from((1, 5, 7, 11, 13, 17, 19, 23)))
    lam = data.draw(st.sampled_from([lam for lam in range(41) if dims(lam + (1 - r0) // 2)[0]]))
    L = 4 * dims(lam + (1 - r0) // 2)[0] + 40
    kernel = square_class_kernel(ell, lam, r0, range(24 * L + 24), L)
    _, elements = eta_space_oracle(lam, r0, ell, r0 + 24 * (L - 1) + 1)
    assert kernel == [row[r0::24] for row in elements]


def test_every_form_on_two_square_classes_classifies():
    # every prime-to-6 r0 and every weight lam + 1/2 < ell^2 / 2, ell <= 13
    sizes, misses = [], []
    for ell in (5, 7, 11, 13):
        for r0 in (1, 5, 7, 11, 13, 17, 19, 23):
            for lam in range((ell * ell - 1) // 2):
                if dims(lam + (1 - r0) // 2)[0]:
                    size, missed = _converse(ell, lam, r0)
                    sizes.append(size)
                    misses += missed
    assert len(sizes) == 609
    assert sizes.count(1) == 81 and sizes.count(2) == 0
    # at lam = k (ell - 1) > 0 too, where the kernel is eta E_(ell-1)^k = eta,
    # case 1 against T1(0), whose terms at ell | n T1(lam) lacks
    assert misses == []


def test_both_classes_at_73_classify_as_case_three():
    # T1(1332) and T2 both lie in the space: their sum is case 3
    assert _converse(73, 1332, 1) == (2, [])


def test_forms_that_look_supported_to_the_sturm_depth_classify_by_congruence():
    # sieved only just past the pivots, the kernel also holds forms that
    # agree with a1 T1 + al T2 at indices 1 and ell but not further:
    # classify must name no case the paper does not give them
    outcomes = set()
    for ell in (5, 7, 11, 13):
        for r0 in (1, ell % 24):
            for lam in range((ell * ell - 1) // 2):
                w = lam + (1 - r0) // 2
                if dims(w)[0]:
                    for strand in square_class_kernel(ell, lam, r0, {1, ell}, w // 12 + 2):
                        paper = _paper_case(ell, lam, r0, strand)
                        case = _classify_strand(strand, ell, lam, r0)
                        assert case in ("unclassified", paper), (ell, lam, r0, case, paper)
                        outcomes.add((case, paper))
    assert {("1", "1"), ("2", "2"), ("unclassified", "unclassified")} <= outcomes
