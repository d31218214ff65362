"""Tests for certified half-integral forms, Hecke action, canonical series."""

import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy import divisor_sigma

from etakit.qseries import (
    PrecisionError,
    QExp24,
    eta_series,
    kronecker,
    theta_op,
    v_op,
)
from etakit.spaces import (
    CertificationError,
    MembershipCertificate,
    membership_depth,
    miller_basis,
)
from etakit import halfint, qseries
from etakit.halfint import (
    HalfIntForm,
    canonical_t1,
    canonical_t2,
    certify,
    eta_form,
    hecke_eigenvalue_check,
    hecke_tp2,
    shimura_coeffs,
    theta_lift,
    u_ell_descent,
)

from oracles import delta_product_coeffs, eisenstein_coeffs, shimura_sum_oracle


def _e4(prec, ell):
    return QExp24(eisenstein_coeffs(prec, 4), prec, ell, 0)


def _e6(prec, ell):
    return QExp24(eisenstein_coeffs(prec, 6), prec, ell, 0)


def _delta(prec, ell):
    return QExp24(delta_product_coeffs(prec), prec, ell, 0)


# === certify and the form wrapper ===


def test_eta_form_basic():
    g = eta_form(60, 5)
    assert g.lam == 0 and g.r == 1 and g.r0 == 1
    assert g.ell == 5
    assert g.series == eta_series(60, 5)
    assert tuple(g.certificate.coordinates) == (1,)
    assert g.certificate.depth == 25
    assert not g.is_zero()


def test_certify_eta_power():
    ell = 11
    w, depth = membership_depth(3, 7)
    f = (eta_series(depth + 24, ell) ** 7).truncate(depth)
    g = certify(f, 3, 7)
    assert g.lam == 3 and g.r == 7
    assert g.series.residue == 7


def test_certify_rejects_wrong_space():
    ell = 5
    f = (eta_series(120, ell) ** 5).truncate(60)
    with pytest.raises(CertificationError):
        certify(f, 2, 1)


def test_certify_precision_gate():
    with pytest.raises(PrecisionError):
        certify(eta_series(20, 5), 0, 1)  # depth 25


def test_certify_ell_crosscheck():
    # a series without a ring is refused before certify can see it
    with pytest.raises(ValueError, match="must be a prime >= 5, got None"):
        certify(eta_series(60, None), 0, 1)


def test_form_validation():
    g = eta_form(60, 5)
    with pytest.raises(ValueError):
        HalfIntForm(g.series, -1, 1, g.certificate)
    with pytest.raises(ValueError):
        HalfIntForm(g.series, 0, 3, g.certificate)  # gcd(3, 6) > 1
    with pytest.raises(ValueError):
        HalfIntForm(g.series, 0, 5, g.certificate)  # residue 1 != 5 mod 24


def test_certify_zero_form():
    z = QExp24.zero(40, modulus=5, residue=5)
    g = certify(z, 0, 5)
    assert g.is_zero()
    assert tuple(g.certificate.coordinates) == ()


# === theta lift ===


def test_theta_lift_eta():
    ell = 5
    g = eta_form(24 * 10, ell)
    h = theta_lift(g)
    assert h.lam == ell + 1
    assert h.r == 1
    # leading coefficient is 1/24 = 4 mod 5
    assert h.series.coeff(1) == 4
    # support stays on the square indices of the unit class
    for n, _ in h.series.nonzero_items():
        assert n % 24 == 1


def test_theta_lift_formula():
    ell = 7
    g = eta_form(24 * 12, ell)
    h = theta_lift(g)
    inv24 = pow(24, -1, ell)
    for n, c in g.series.nonzero_items():
        assert h.series.coeff(n) == c * n * inv24 % ell


def test_theta_lift_iterates():
    ell = 5
    g = eta_form(24 * 14, ell)
    h = theta_lift(theta_lift(g))
    assert h.lam == 2 * (ell + 1)
    assert h.series == theta_op(theta_op(g.series))


def test_inv24_table():
    # frozen leading coefficients of the first lift
    for ell, inv in ((5, 4), (7, 5), (11, 6), (13, 6)):
        assert pow(24, -1, ell) == inv
        g = theta_lift(eta_form(24 * 10, ell))
        assert g.series.coeff(1) == inv


# === U_ell descent ===


def test_descent_of_eta_prime_power():
    for ell in (5, 7, 11):
        prec = 24 * ell * 2 + ell
        f = (eta_series(prec + 24 * ell, ell) ** ell).truncate(prec)
        g = certify(f, (ell - 1) // 2, ell)
        d = u_ell_descent(g)
        assert d.lam == 0
        assert d.r == 1
        assert d.series == eta_series(d.series.prec, ell)


def test_descent_requires_divisible_support():
    g = eta_form(60, 5)
    with pytest.raises(ValueError):
        u_ell_descent(g)


@pytest.mark.parametrize("ell", [5, 13, 3037000507, 2**64 + 13])
def test_descent_names_the_first_index_off_the_multiples_of_ell(ell):
    # on r0 = ell mod 24 the multiples of ell are ell (1 + 24 j): a term on
    # the class between them is the witness, the least one when there are more
    r0, prec = ell % 24, 24 * 8 * 25
    multiples = {ell * (1 + 24 * j): 1 for j in range(3) if ell * (1 + 24 * j) < prec}
    off = [n for n in range(r0 + 24, prec, 24) if n % ell][:3]
    for terms, witness in ((multiples, None), ({**multiples, **{n: 1 for n in reversed(off)}}, off[0])):
        series = QExp24.from_dict(terms, prec, ell, r0)
        form = HalfIntForm(series, (ell - 1) // 2, ell, MembershipCertificate(series.values[:0], prec, 0))
        try:
            u_ell_descent(form)
            message = ""
        except (ValueError, CertificationError) as exc:  # past the support test, the descent may fail to certify
            message = str(exc)
        if witness is None:
            assert "divisible" not in message
        else:
            assert message == f"descent input must be supported on indices divisible by {ell}; index {witness} is not"


def test_descent_zero_form():
    z = QExp24.zero(24 * 6 * 5, modulus=5, residue=5)
    g = certify(z, 2, 5)
    d = u_ell_descent(g)
    assert d.is_zero()
    assert d.lam == 0
    assert d.r == 1


def test_descent_skips_empty_weights():
    # eta^35 = V_5(eta^7) mod 5 descends to eta^7; lam* = 3 is the only
    # weight in the class 17 - 2 (mod 4) under the bound, and the lower
    # weights 0..2 give empty spaces for multiplier power 7
    ell = 5
    lam, r = 17, 35
    w, depth = membership_depth(lam, r)
    # keep enough length that the descended series still reaches the
    # lam* = 3 certification depth of 31
    prec = max(depth, 24 * 7 + 11)
    f = v_op((eta_series(24 * 40, ell) ** 7).truncate(36), ell).truncate(prec)
    g = certify(f, lam, r)
    d = u_ell_descent(g)
    assert d.lam == 3
    assert d.r == 35 * 5 % 24 == 7
    assert d.series == (eta_series(24 * 10, ell) ** 7).truncate(d.series.prec)


def test_descent_of_eta_e4_mod_13():
    # V_13(eta*E4) = (eta*E4)^13 has lam = 13*4 + 6 = 58, so the descent
    # lies in the class lam* = 58 - 6 (mod 12); lam* = 0, where nothing
    # beyond the pivot is compared, is outside it
    ell = 13
    h = eta_series(24 * 4, ell) * _e4(24 * 4, ell)
    d = u_ell_descent(certify(v_op(h, ell), 58, 13))
    assert (d.lam, d.r) == (4, 1)
    assert d.series == h


def test_descent_past_the_weight_hypothesis():
    # eta^7*E4^2 mod 7 has lam = 11; V_7 of it has lam = 7*11 + 3 = 80,
    # past lam + 1/2 < 49/2, where lam* = 5 and 11 are both in the class
    ell = 7
    h = (eta_series(24 * 6, ell) ** 7).truncate(24 * 6) * _e4(24 * 6, ell) ** 2
    d = u_ell_descent(certify(v_op(h, ell), 80, 49))
    assert (d.lam, d.r) == (11, 7)
    assert d.series == h


def test_descent_of_eta_delta_mod_5():
    # V_5(eta*Delta) has lam = 5*12 + 2 = 62, where the class 62 - 2
    # (mod 4) holds lam* = 0, 4, 8 and 12; lam* = 0 compares nothing
    # beyond the pivot and would read eta*Delta as 0*eta
    ell = 5
    h = eta_series(24 * 4, ell) * _delta(24 * 4, ell)
    d = u_ell_descent(certify(v_op(h, ell), 62, 5))
    assert (d.lam, d.r) == (12, 1)
    assert tuple(d.certificate.coordinates) == (0, 1)
    assert d.series == h


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 11, 13)),
    st.sampled_from((1, 5, 7, 11, 13, 17, 19, 23)),
    st.integers(0, 1),
    st.integers(0, 2),
    st.integers(0, 1),
)
def test_descent_weight_class(ell, r, j, a, b):
    # h = eta^r Delta^j E4^a E6^b has lam = (r-1)/2 + 12j + 4a + 6b, and
    # V_ell(h) = h^ell has lam_f = ell*lam + (ell-1)/2; Serre's weight
    # congruence puts the descended lam* in the class of lam mod ell - 1
    lam = (r - 1) // 2 + 12 * j + 4 * a + 6 * b
    prec = 24 * 8
    h = (eta_series(prec, ell) ** r).truncate(prec)
    for g, k in ((_delta(prec, ell), j), (_e4(prec, ell), a), (_e6(prec, ell), b)):
        for _ in range(k):
            h = h * g
    lam_f = ell * lam + (ell - 1) // 2
    d = u_ell_descent(certify(v_op(h, ell), lam_f, r * ell))
    assert (d.lam - lam) % (ell - 1) == 0
    assert d.series == h


# === Hecke operator ===


def _tp2_reference(f, p, lam_int, ell):
    """Slow direct reimplementation used only as a cross-check."""
    out = []
    for n in range(-(-f.prec // (p * p))):
        v = f.coeff(p * p * n)
        v += (
            kronecker(12, p)
            * kronecker((-1) ** lam_int, p)
            * kronecker(n, p)
            * pow(p, lam_int - 1, ell)
            * f.coeff(n)
        )
        if n % (p * p) == 0:
            v += pow(p, 2 * lam_int - 1, ell) * f.coeff(n // (p * p))
        out.append(v % ell)
    return out


def test_hecke_matches_reference():
    rng = random.Random(907)
    for ell, p in ((5, 7), (7, 5), (11, 7)):
        prec = 24 * 30
        terms = {}
        for _ in range(40):
            n = rng.randrange(prec)
            terms[n - n % 24 + 1] = rng.randrange(1, ell)
        f = QExp24.from_dict(terms, prec=prec, modulus=ell, residue=1)
        for lam_int in (2, 6, 7):
            got = hecke_tp2(f, p, lam_int)
            want = _tp2_reference(f, p, lam_int, ell)
            assert list(got.coeffs) == want, (ell, p, lam_int)


def test_hecke_prec_and_residue():
    ell = 5
    f = eta_series(24 * 50, ell)
    g = hecke_tp2(f, 7, 6)
    assert g.prec == -(-f.prec // 49)
    assert g.residue == 1


def test_hecke_linearity():
    ell = 7
    prec = 24 * 30
    f = eta_series(prec, ell)
    g = (eta_series(prec + 24 * 24, ell) ** 25).truncate(prec)
    lhs = hecke_tp2(f + g, 5, 8)
    rhs = hecke_tp2(f, 5, 8) + hecke_tp2(g, 5, 8)
    assert lhs == rhs


def test_hecke_validation():
    f = eta_series(100, 5)
    with pytest.raises(ValueError):
        hecke_tp2(f, 3, 2)
    with pytest.raises(ValueError):
        hecke_tp2(f, 9, 2)
    with pytest.raises(ValueError):
        hecke_eigenvalue_check(theta_lift(eta_form(24 * 60, 5)), 7, eps_p=0)
    with pytest.raises(ValueError):
        hecke_tp2(f, 5, 2)  # p = ell


# === eigenvalue statement ===


def test_eigenvalue_for_lifted_eta():
    ell = 5
    g = theta_lift(eta_form(24 * 120, ell))
    for p in (7, 13, 17):
        assert hecke_eigenvalue_check(g, p), p


def test_eigenvalue_for_double_lift():
    # lam_pre = 6 stays even, lam_bar = 6 mod 4 = 2
    ell = 5
    g = theta_lift(theta_lift(eta_form(24 * 130, ell)))
    assert hecke_eigenvalue_check(g, 7)


def test_eigenvalue_scalar_value():
    # frozen: ell = 5, p = 7, lam_bar = 0 gives (12/7)(49 + 7) = -56 = 4 mod 5
    ell = 5
    g = theta_lift(eta_form(24 * 120, ell))
    lhs = hecke_tp2(g.series, 7, g.lam)
    assert lhs.first_difference(g.series.scale(4), lhs.prec) is None
    assert lhs.first_difference(g.series.scale(3), lhs.prec) is not None


def _expected_verdict(g, p, eps_p):
    """hecke_tp2(g) == scalar * g below ceil(P / p^2), scalar the eigenvalue of the check."""
    lam_bar = (g.lam - g.ell - 1) % (g.ell - 1)
    scalar = eps_p * kronecker(12, p) * (p ** (lam_bar + 2) + p ** (lam_bar + 1))
    lhs = hecke_tp2(g.series, p, g.lam)
    return lhs == g.series.scale(scalar).truncate(lhs.prec)


def test_eigenvalue_check_sees_prefix_perturbation():
    # the check compares T(p^2) g with scalar * g on ceil(P / p^2) indices;
    # one changed coefficient inside that prefix must flip the verdict, and
    # with either sign eps_p the fused check says what hecke_tp2 and a
    # compare say
    ell, p = 5, 7
    g = theta_lift(eta_form(24 * 120, ell))
    assert hecke_eigenvalue_check(g, p)
    assert not hecke_eigenvalue_check(g, p, -1) and not _expected_verdict(g, p, -1)
    prefix = -(-g.series.prec // (p * p))
    for n in (1, 25, (prefix - 2) // 24 * 24 + 1):
        assert n < prefix
        coeffs = list(g.series.coeffs)
        coeffs[n] = (coeffs[n] + 1) % ell
        bent = HalfIntForm(
            QExp24(coeffs, g.series.prec, ell, g.series.residue), g.lam, g.r, g.certificate
        )
        assert not hecke_eigenvalue_check(bent, p), n
        for eps_p in (1, -1):
            assert hecke_eigenvalue_check(bent, p, eps_p) == _expected_verdict(bent, p, eps_p), (n, eps_p)


def test_eigenvalue_check_compares_a_one_index_prefix():
    # with P <= 24 p^2 the joint prefix holds index 1 alone, where T(p^2) g
    # reads a(p^2); a change there is the only difference the check can see
    ell, p = 5, 7
    g = theta_lift(eta_form(24 * p * p, ell))
    assert -(-g.series.prec // (p * p)) == 24
    assert hecke_eigenvalue_check(g, p)
    coeffs = list(g.series.coeffs)
    coeffs[p * p] = (coeffs[p * p] + 1) % ell
    bent = HalfIntForm(QExp24(coeffs, g.series.prec, ell, 1), g.lam, g.r, g.certificate)
    assert not hecke_eigenvalue_check(bent, p)
    for form in (g, bent):
        for eps_p in (1, -1):
            assert hecke_eigenvalue_check(form, p, eps_p) == _expected_verdict(form, p, eps_p)


def test_eigenvalue_check_builds_no_series_and_reads_one_sign_strand(monkeypatch):
    # the check reduces T(p^2) g - s g on one strand: no QExp24 wraps it, and
    # the sign strand of (p, r0) is read once per call
    g = theta_lift(eta_form(24 * 400, 13))
    reads = []
    signs = halfint._signs
    monkeypatch.setattr(halfint, "_signs", lambda *args: reads.append(args) or signs(*args))

    def no_series(*args):
        raise AssertionError("the eigenvalue check built a QExp24")

    monkeypatch.setattr(QExp24, "_of", no_series)
    for p in (5, 7, 11, 17):
        for eps_p in (1, -1):
            reads.clear()
            assert hecke_eigenvalue_check(g, p, eps_p) == (eps_p == 1)
            assert len(reads) == 1


def test_eigenvalue_validation():
    ell = 5
    g = theta_lift(eta_form(24 * 60, ell))
    with pytest.raises(ValueError):
        hecke_eigenvalue_check(g, 11)  # 11 = 1 mod 5
    with pytest.raises(ValueError):
        hecke_eigenvalue_check(g, 4)
    with pytest.raises(ValueError):
        hecke_eigenvalue_check(eta_form(24 * 60, ell), 7)  # lam_pre < 0
    # odd lam - (ell+1): certified nonzero form at lam = 7 with r = 7
    w, depth = membership_depth(7, 7)
    f = (eta_series(depth + 24 * 8, ell) ** 7) * _e4(depth + 24, ell)
    h = certify(f.truncate(depth), 7, 7)
    with pytest.raises(ValueError):
        hecke_eigenvalue_check(h, 7)


@pytest.mark.parametrize("bad", [-7, 0, 1, 2, 3, 4, 9, 25, 2**31])
def test_one_prime_rule_names_its_argument(bad):
    # miller_basis, hecke_tp2 and hecke_eigenvalue_check share qseries' rule
    f = eta_series(100, 5)
    g = theta_lift(eta_form(24 * 60, 7))
    for name, call in [
        ("ell", lambda: miller_basis(12, bad, 200)),
        ("p", lambda: hecke_tp2(f, bad, 2)),
        ("p", lambda: hecke_eigenvalue_check(g, bad)),
    ]:
        with pytest.raises(ValueError, match=rf"^{name} must be a prime >= 5, got {bad}$"):
            call()


# === divisor-sum coefficients ===


def test_shimura_matches_oracle():
    # even lam (theta lift of eta at ell = 5) and odd lam (eta^7 E4 at
    # lam = 7, ell = 7), where the sign (-1/d)^lam of d = 11 changes A_7(11)
    lifted = theta_lift(eta_form(24 * 80, 5))
    prec = 24 * 100
    odd = certify((eta_series(prec, 7) ** 7) * _e4(prec, 7), 7, 7)
    for g, ts in ((lifted, (1, 5, 7)), (odd, (7, 31))):
        for t in ts:
            n_max = 12 if t in (1, 7) else 8
            got = shimura_coeffs(g.series, t, g.lam, n_max)
            want = [
                shimura_sum_oracle(g.series.coeffs, t, g.lam, n, g.ell)
                for n in range(1, n_max + 1)
            ]
            assert got == want, (g.lam, t)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_shimura_matches_oracle_on_random_series(data):
    # int64 storage at 3037000493, Python integers at 3037000507; lam odd,
    # even and zero; 12t below n_max (t = 1) and above it
    ell = data.draw(st.sampled_from((3037000493, 3037000507)))
    t = data.draw(st.sampled_from((1, 5, 7, 11, 35)))
    n_max = data.draw(st.integers(0, 40))
    lam = data.draw(st.sampled_from((0, 1, 2, 3, 8, ell + 1, ell + 2)))
    residue = data.draw(st.sampled_from((1, 5, 11, 23, 0, 4, 9, 12, 20)))
    prec = t * n_max * n_max + 1 + data.draw(st.integers(0, 30))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = QExp24.from_dict({n: rng.randrange(ell) for n in range(residue, prec, 24)}, prec, ell, residue)
    want = [shimura_sum_oracle(f.coeffs, t, lam, m, ell) for m in range(1, n_max + 1)]
    assert shimura_coeffs(f, t, lam, n_max) == want


@pytest.mark.parametrize("t", (1, 5, 7, 11, 13, 35))
def test_shimura_sign_table_matches_oracle(t):
    # (12t/d) from Legendre symbols and reciprocity: 3t = 3 (mod 4) at t = 1,
    # 5, 13 and 1 (mod 4) at 7, 11, 35; every t but 35 has a prime of 3t above
    # sqrt(3t); n_max passes 12t at t = 1 and 5; odd and even lam flip (-1/d)^lam
    ell = 101
    n_max = 64 if t < 7 else 24
    rng = random.Random(t)
    prec = t * n_max * n_max + 1
    # one series on each class that t m^2 reaches mod 24
    for r in sorted({t * m * m % 24 for m in range(12)}):
        f = QExp24([rng.randrange(ell) if n % 24 == r else 0 for n in range(prec)], prec, ell, r)
        for lam in (0, 1, 2, 3, 4, ell + 2):
            want = [shimura_sum_oracle(f.coeffs, t, lam, n, ell) for n in range(1, n_max + 1)]
            assert shimura_coeffs(f, t, lam, n_max) == want, (r, lam)


def test_shimura_lam_zero_needs_n_max_below_ell():
    # d^(lam - 1) = d^(-1) has no value mod ell at d = ell
    ell = 5
    f = eta_series(24 * 40, ell)
    want = [shimura_sum_oracle(f.coeffs, 1, 0, n, ell) for n in range(1, 5)]
    assert shimura_coeffs(f, 1, 0, 4) == want
    with pytest.raises(ValueError, match=r"d\^\(-1\) is undefined mod 5 at d = 5"):
        shimura_coeffs(f, 1, 0, 5)


def test_shimura_closed_form_for_lifted_eta():
    # for the j-fold lift of eta, away from ell the t=1 coefficients
    # collapse to a(1) (12/n) n^(2j-1) sigma_1(n)
    ell = 7
    j = 1
    g = theta_lift(eta_form(24 * 90, ell))
    a1 = g.series.coeff(1)
    vals = shimura_coeffs(g.series, 1, g.lam, 13)
    for n in range(1, 14):
        if n % ell == 0:
            continue
        want = a1 * kronecker(12, n) * pow(n, 2 * j - 1, ell) * divisor_sigma(n, 1) % ell
        assert vals[n - 1] == want, n


def test_shimura_tables_are_cached_prefixes(cold_caches):
    # the divisor pairs and the characters per (t, lam mod 2) are served by
    # prefix and grown at least twofold: short, long, then short n_max, each
    # call against the oracle, each table under twice its longest request
    ell = 101
    rng = random.Random(31)
    longest = {}
    for n_max in (3, 9, 2, 30, 31, 70, 5):
        for t in (1, 5, 7, 11, 35):
            prec = t * n_max * n_max + 1
            if prec > 24 * 6000:
                continue
            f = QExp24.from_dict({n: rng.randrange(ell) for n in range(t % 24, prec, 24)}, prec, ell, t % 24)
            for lam in (2, 3):
                want = [shimura_sum_oracle(f.coeffs, t, lam, n, ell) for n in range(1, n_max + 1)]
                assert shimura_coeffs(f, t, lam, n_max) == want, (n_max, t, lam)
                longest[t, lam % 2] = max(longest.get((t, lam % 2), 0), n_max)
                assert qseries._TABLES[halfint._character_table, t, lam % 2][0] < 2 * (longest[t, lam % 2] + 1)
            covered = qseries._TABLES[halfint._pair_table,][0]
            assert max(longest.values()) <= covered < 2 * max(longest.values())
    assert {key[1:] for key in qseries._TABLES if key[0] is halfint._character_table} == set(longest)


def test_a_covered_shimura_call_rebuilds_no_pair_table():
    f = theta_lift(eta_form(24 * 1200, 13)).series
    first = shimura_coeffs(f, 1, 14, 150)
    keys = (halfint._pair_table,), (halfint._character_table, 1, 0)
    tables = [qseries._TABLES[key] for key in keys]
    assert shimura_coeffs(f, 1, 14, 150) == first
    shimura_coeffs(f, 5, 14, 60)
    assert all(qseries._TABLES[key] is table for key, table in zip(keys, tables))


def test_shimura_checks_precision_before_it_factors_t(monkeypatch):
    # t * n_max^2 < prec bounds t, and with it the trial division of
    # squarefree_part; a t past the precision is refused before it
    def no_factoring(n):
        raise AssertionError(f"squarefree_part({n}) ran")

    f = eta_series(100, 5)
    monkeypatch.setattr(halfint, "squarefree_part", no_factoring)
    for t in (10**20 + 39, 101):
        with pytest.raises(PrecisionError):
            shimura_coeffs(f, t, 0, 1)
    assert shimura_coeffs(f, 10**20 + 39, 0, 0) == []  # n_max = 0 asks for no sum


def test_shimura_validation():
    ell = 5
    f = eta_series(24 * 40, ell)
    for bad_t in (0, -1, 2, 9, 25, 50):
        with pytest.raises(ValueError):
            shimura_coeffs(f, bad_t, 1, 3)
    with pytest.raises(PrecisionError):
        shimura_coeffs(f, 1, 1, 31)  # needs prec > 961
    shimura_coeffs(f, 1, 1, 30)  # 900 < 960: just inside the window


# === canonical comparison series ===


def test_t1_at_zero_is_eta():
    for ell in (5, 11):
        assert canonical_t1(0, ell, 24 * 20) == eta_series(24 * 20, ell)


def test_t1_positive_lambda_kills_ell_part():
    ell = 5
    f = canonical_t1(4, ell, 24 * 40)
    assert f.coeff(25) == 0  # n = 5 term: 5^4 = 0 mod 5
    assert f.coeff(1) == 1
    assert f.coeff(49) == kronecker(12, 7) * pow(7, 4, ell) % ell
    # lam = 0 keeps the n = 5 term alive
    assert canonical_t1(0, ell, 26).coeff(25) == kronecker(12, 5) % ell


def test_t1_periodic_in_lambda():
    # n^lam mod ell only sees lam mod (ell-1) once lam >= 1
    ell = 7
    assert canonical_t1(2, ell, 24 * 30) == canonical_t1(2 + (ell - 1), ell, 24 * 30)
    assert canonical_t1(0, ell, 24 * 30) != canonical_t1(ell - 1, ell, 24 * 30)


def test_t2_is_eta_to_the_ell():
    for ell in (5, 7):
        prec = 24 * ell * 3
        t2 = canonical_t2(ell, prec)
        assert t2.residue == ell % 24
        e = (eta_series(prec + 24 * ell, ell) ** ell).truncate(prec)
        assert t2 == e


def test_canonical_prec_floor():
    with pytest.raises(PrecisionError):
        canonical_t1(0, 5, 1)
    with pytest.raises(PrecisionError):
        canonical_t2(5, 1)
