"""Tests for integer-weight spaces, certificates, filtration, eta realization."""

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import divisor_sigma

from etakit import qseries, spaces
from etakit.halfint import certify, eta_form, theta_lift
from etakit.qseries import PrecisionError, QExp24, _square_strand, eta_series, theta_op
from etakit.spaces import (
    CertificationError,
    MembershipCertificate,
    NotMember,
    coordinates,
    delta_series,
    dims,
    eisenstein_e4,
    eisenstein_e6,
    eta_membership,
    filtration,
    membership_depth,
    miller_basis,
    sturm_check,
)

from oracles import (
    _euler_power,
    _poly_mul,
    delta_product_coeffs,
    eta_membership_oracle,
    eta_product_coeffs,
    eta_space_oracle,
    sigma_oracle,
)


# === dimension bookkeeping ===


def test_dims_table():
    # level-one dimensions, frozen from the classical table
    want_m = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2,
              18: 2, 20: 2, 22: 2, 24: 3, 26: 2, 28: 3, 30: 3}
    for k, d in want_m.items():
        assert dims(k)[0] == d, k
    assert dims(12)[1] == 1
    assert dims(24)[1] == 2
    assert dims(0) == (1, 0)
    assert dims(4)[1] == 0
    assert dims(-4) == (0, 0)
    assert dims(7) == (0, 0)


def test_dims_growth():
    # dim M_k - dim S_k = 1 whenever M_k is nonzero and k > 0
    for k in range(4, 200, 2):
        dm, ds = dims(k)
        if dm:
            assert dm - ds == 1


# === Eisenstein series and delta ===


def test_e4_coefficients():
    f = eisenstein_e4(24 * 6)
    assert f.coeff(0) == 1
    for n in range(1, 6):
        assert f.coeff(24 * n) == 240 * divisor_sigma(n, 3)


def test_e6_coefficients():
    f = eisenstein_e6(24 * 6)
    assert f.coeff(0) == 1
    for n in range(1, 6):
        assert f.coeff(24 * n) == -504 * divisor_sigma(n, 5)


def test_delta_first_coefficients():
    # tau(1..10)
    tau = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
    f = delta_series(24 * 11)
    assert f.coeff(0) == 0
    for n, t in enumerate(tau, start=1):
        assert f.coeff(24 * n) == t


def test_delta_matches_product_oracle():
    # the 24th power picks up 23 extra units of precision from the
    # valuation of eta; compare on the requested window
    prec = 24 * 40
    d = delta_series(prec).truncate(prec)
    assert list(d.coeffs) == delta_product_coeffs(prec)


def test_delta_691_congruence():
    # tau(n) = sigma_11(n) mod 691 for all n
    f = delta_series(24 * 60)
    for n in range(1, 60):
        assert (f.coeff(24 * n) - divisor_sigma(n, 11)) % 691 == 0


def test_discriminant_relation():
    prec = 24 * 12
    e4 = eisenstein_e4(prec)
    e6 = eisenstein_e6(prec)
    lhs = e4**3 - e6**2
    d = delta_series(prec).truncate(lhs.prec)
    assert lhs == d.scale(1728)


# === echelon bases ===


def test_miller_basis_shape():
    ell = 5
    b = miller_basis(12, ell, 24 * 5)
    assert b.dim == 2
    assert b.pivots == (0, 1)
    for i, elem in enumerate(b.elements):
        assert elem.modulus == ell
        assert elem.residue == 0
        for j in range(b.dim):
            assert elem.coeff(24 * j) == (1 if i == j else 0)


# 5 and 691 run the int64 kernels; 2^31 - 1 and 3037000493 store int64 but
# sum products on the exact path; 3037000507, 4294967311 and 2^64 + 13 store
# Python integers (3037000493 and 3037000507 straddle the storage rule)
DELTA_ELLS = (5, 691, 2**31 - 1, 3037000493, 3037000507, 4294967311, 2**64 + 13)


def _delta_mod(prec, ell):
    return [c % ell for c in delta_product_coeffs(prec)]


def test_miller_basis_second_element_is_delta():
    # echelon element with a(0)=0, a(1)=1 in a 2-dimensional weight-12
    # space can only be the discriminant
    for ell in DELTA_ELLS:
        prec = 24 * 6
        b = miller_basis(12, ell, prec)
        assert list(b.elements[1].coeffs) == _delta_mod(prec, ell), ell


def test_miller_basis_cusp_kind():
    for ell in (7,) + DELTA_ELLS[2:]:
        b = miller_basis(12, ell, 24 * 5, kind="S")
        assert b.dim == 1
        assert b.pivots == (1,)
        assert list(b.elements[0].coeffs) == _delta_mod(24 * 5, ell), ell
    assert miller_basis(10, 7, 24 * 4, kind="S").dim == 0


def test_miller_basis_zero_space():
    b = miller_basis(2, 5, 48)
    assert b.dim == 0 and b.elements == ()
    assert miller_basis(-4, 5, 48).dim == 0


def test_miller_basis_cache():
    a = miller_basis(16, 11, 24 * 8)
    b = miller_basis(16, 11, 24 * 8)
    assert a is b
    c = miller_basis(16, 11, 24 * 9)
    assert c is not a


def test_miller_basis_validation():
    with pytest.raises(ValueError):
        miller_basis(12, 4, 200)
    with pytest.raises(ValueError):
        miller_basis(12, 5, 200, kind="X")
    with pytest.raises(PrecisionError):
        miller_basis(12, 5, 24 * 2)  # needs dim + k/12 + 1 integer exponents


def test_miller_basis_big_weight():
    # high-weight space: echelon property holds across all pivots
    ell = 7
    k = 120
    dm = dims(k)[0]
    assert dm == 11
    b = miller_basis(k, ell, 24 * (dm + k // 12 + 2))
    assert b.pivots == tuple(range(dm))
    for i, elem in enumerate(b.elements):
        for j in range(dm):
            assert elem.coeff(24 * j) == (1 if i == j else 0)


# === coordinates and certificates ===


def test_coordinates_roundtrip():
    ell = 11
    prec = 24 * 8
    b = miller_basis(24, ell, prec)
    f = b.elements[0].scale(3) + b.elements[1].scale(7) + b.elements[2].scale(10)
    cert = coordinates(f, b, prec)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == (3, 7, 10)
    assert cert.depth == prec
    assert cert.checked == 8 - 3  # integer exponents below depth minus pivots


def test_coordinates_rejects_outsider():
    ell = 5
    prec = 24 * 6
    b = miller_basis(12, ell, prec)
    f = b.elements[1] + QExp24.from_dict({30: 1}, prec=prec, modulus=ell)
    res = coordinates(f, b, prec)
    assert isinstance(res, NotMember)
    assert res.witness == 30


def test_coordinates_depth_validation():
    ell = 5
    b = miller_basis(12, ell, 24 * 6)
    f = b.elements[0]
    with pytest.raises(PrecisionError):
        coordinates(f, b, 24 * 6 + 1)  # deeper than precision
    with pytest.raises(PrecisionError):
        coordinates(f.truncate(20), b, 20)  # depth misses pivot q^1
    with pytest.raises(ValueError):
        coordinates(f, b, 0)
    with pytest.raises(ValueError):
        coordinates(QExp24.zero(60, modulus=7), b, 30)  # ring mismatch


def test_random_members_certify():
    rng = random.Random(1411)
    for ell in (5, 13, 3037000493):
        for k in (12, 20, 28):
            prec = 24 * (dims(k)[0] + k // 12 + 2)
            b = miller_basis(k, ell, prec)
            for _ in range(5):
                coeffs = [rng.randrange(ell) for _ in range(b.dim)]
                f = QExp24.zero(prec, modulus=ell)
                for c, e in zip(coeffs, b.elements):
                    f = f + e.scale(c)
                cert = coordinates(f, b, prec)
                assert isinstance(cert, MembershipCertificate)
                assert cert.coordinates == tuple(coeffs)


# === Sturm bound comparisons ===


def test_sturm_check_weight_16():
    ell = 5
    prec = 24 * 9
    f = (delta_series(prec) * eisenstein_e4(prec)).reduce_mod(ell).truncate(24 * 8)
    b = miller_basis(16, ell, 24 * 8)
    assert sturm_check(f, b.elements[1], 16)
    assert not sturm_check(f, b.elements[0], 16)


def test_sturm_check_precision_gate():
    ell = 5
    f = delta_series(30).truncate(30).reduce_mod(ell)
    with pytest.raises(PrecisionError):
        sturm_check(f, f, 12)  # weight 12 needs 2 integer exponents: prec 49


# === filtration ===


def test_filtration_of_delta():
    for ell in (5, 7, 11, 13):
        prec = 24 * 10
        f = delta_series(prec).reduce_mod(ell)
        assert filtration(f, 12) == 12


def test_filtration_detects_drop():
    # E4 = 1 mod 5 and E6 = 1 mod 7 (weight ell - 1 collapses to weight 0)
    assert filtration(eisenstein_e4(24 * 3).reduce_mod(5), 4) == 0
    assert filtration(eisenstein_e6(24 * 3).reduce_mod(7), 6) == 0
    # so delta * E4 drops from 16 back to 12 mod 5
    prec = 24 * 10
    f = (delta_series(prec) * eisenstein_e4(prec)).reduce_mod(5)
    assert filtration(f, 16) == 12


def test_filtration_of_delta_square():
    f = (delta_series(24 * 10) ** 2).reduce_mod(5)
    assert filtration(f, 24) == 24


def test_filtration_after_theta():
    # theta raises filtration by ell + 1 exactly when ell does not divide it
    ell = 5
    f = theta_op(delta_series(24 * 12).reduce_mod(ell))
    assert filtration(f, 12 + ell + 1) == 18


def test_filtration_validation():
    ell = 5
    z = QExp24.zero(24 * 4, modulus=ell)
    with pytest.raises(ValueError):
        filtration(z, 12)
    with pytest.raises(ValueError):
        filtration(delta_series(24 * 4), 12)  # integer ring
    f = delta_series(24 * 4).reduce_mod(ell)
    with pytest.raises(ValueError):
        filtration(f, 11)  # odd weight
    with pytest.raises(ValueError):
        filtration(eta_series(24 * 4, 5), 12)  # fractional support
    with pytest.raises(PrecisionError):
        filtration(f.truncate(48), 12)


def test_filtration_rejects_non_member():
    ell = 5
    junk = QExp24.from_dict({0: 1, 24: 2, 48: 4, 72: 3, 96: 1, 120: 2},
                            prec=24 * 6 + 1, modulus=ell)
    with pytest.raises(CertificationError):
        filtration(junk, 4)


# === eta-realized half-integral spaces ===


def test_membership_depth_values():
    assert membership_depth(0, 1) == (0, 25)
    assert membership_depth(3, 7) == (0, 31)
    assert membership_depth(12, 1) == (12, 49)
    assert membership_depth(2, 25) == (2, 25)


def _eta_power(k, prec, ell):
    return (eta_series(prec + 24 * k, ell) ** k).truncate(prec)


def test_eta_space_one_dimensional():
    f = eta_series(26, 5)
    cert = eta_membership(f, 0, 1)
    assert cert == MembershipCertificate((1,), 25, 0)


def test_eta_space_heavier_multiplier():
    ell = 11
    prec = 24 * 3 + 7
    assert membership_depth(3, 7)[0] == 0
    assert eta_membership(_eta_power(7, prec, ell), 3, 7) == MembershipCertificate((1,), 31, 0)


def test_eta_space_two_dimensional():
    # w = 12: pivots at indices 1 and 25, and eta^25 = eta * Delta is the second
    ell = 7
    prec = 24 * 7 + 1
    assert membership_depth(12, 1)[0] == 12
    cert = eta_membership(_eta_power(25, prec, ell), 12, 1)
    assert cert == MembershipCertificate((0, 1), 49, 0)
    assert eta_membership(_eta_power(25, prec, ell), 12, 25) == cert


def test_eta_space_empty_cases():
    for lam, r in ((0, 5), (1, 1), (1, 5)):  # w = -2, 1 (odd), -1
        z = QExp24.zero(48, modulus=5, residue=r % 24)
        assert eta_membership(z, lam, r) == MembershipCertificate((), 48, 2)
    with pytest.raises(ValueError):
        eta_membership(eta_series(48, 5), 0, 2)  # gcd(r, 6) != 1
    with pytest.raises(ValueError):
        eta_membership(eta_series(48, 5), -1, 1)
    with pytest.raises(ValueError):
        eta_membership(QExp24.zero(48, modulus=6), 0, 1)  # no ring F_6


def test_eta_membership_eta_powers():
    # eta^r sits in the (lam, r) space with lam = (r - 1) / 2 for r < 24
    for ell, r in ((5, 1), (7, 5), (11, 7), (5, 13)):
        lam = (r - 1) // 2
        w, depth = membership_depth(lam, r)
        f = (eta_series(depth + 24, ell) ** r).truncate(depth)
        cert = eta_membership(f, lam, r)
        assert isinstance(cert, MembershipCertificate), (ell, r)
        assert cert.coordinates == (1,)
        assert cert.depth == depth


def test_eta_membership_wrong_class():
    ell = 5
    f = (eta_series(100, ell) ** 5).truncate(60)
    res = eta_membership(f, 2, 1)  # claims support = 1 mod 24
    assert isinstance(res, NotMember)
    assert res.witness == 5


def test_eta_membership_empty_space():
    ell = 5
    z = QExp24.zero(40, modulus=ell, residue=5)
    cert = eta_membership(z, 0, 5)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == ()
    assert cert.depth == 40
    nz = QExp24.from_dict({5: 1}, prec=40, modulus=ell, residue=5)
    res = eta_membership(nz, 0, 5)
    assert isinstance(res, NotMember)
    assert res.witness == 5


def test_eta_membership_two_dim_coords():
    # eta E4^3 and eta Delta from product formulas and divisor sums:
    # 4 eta E4^3 + (6 - 4 c) eta Delta, c = a(25) of eta E4^3, has
    # coefficients 4 and 6 at the pivot indices 1 and 25
    ell = 7
    lam, r = 12, 1
    w, depth = membership_depth(lam, r)
    prec = depth + 24
    eta = QExp24(eta_product_coeffs(prec), prec, ell)
    e4_terms = {24 * n: 240 * sigma_oracle(n, 3) for n in range(1, 4)}
    e4 = QExp24.from_dict({0: 1, **e4_terms}, prec, ell)
    delta = QExp24(delta_product_coeffs(prec), prec, ell)
    eta_e4_cube = (eta * e4 * e4 * e4).truncate(prec)
    c = eta_e4_cube.coeff(25)
    f = eta_e4_cube.scale(4) + (eta * delta).truncate(prec).scale(6 - 4 * c)
    cert = eta_membership(f, lam, r)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == (4, 6)


def test_eta_membership_precision_gate():
    ell = 5
    f = eta_series(20, ell)
    with pytest.raises(PrecisionError):
        eta_membership(f, 0, 1)  # needs 25
    with pytest.raises(ValueError):
        eta_membership(eta_series(30), 0, 1)  # integer ring


# === row-matrix bases: prefixes, exact kernels, shared verifier ===

MERSENNE31 = 2**31 - 1


def _clear_caches(monkeypatch):
    monkeypatch.setattr(spaces, "_ROW_CACHE", {})
    monkeypatch.setattr(spaces, "_GENERATOR_CACHE", {})


def test_e4_e6_sieve_matches_divisor_sigma():
    prec = 24 * 60 + 1
    e4, e6 = eisenstein_e4(prec), eisenstein_e6(prec)
    for n in range(1, 61):
        assert e4.coeff(24 * n) == 240 * divisor_sigma(n, 3)
        assert e6.coeff(24 * n) == -504 * divisor_sigma(n, 5)


def test_basis_rows_are_read_only():
    b = miller_basis(24, 11, 24 * 8)
    cusp = miller_basis(26, 7, 24 * 7 + 1, "S")
    for rows in (b.rows, miller_basis(24, 11, 24 * 6).rows, cusp.rows):
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 2


def test_rows_hold_the_strand_of_each_element():
    for b in (miller_basis(28, 13, 24 * 7 + 5), miller_basis(26, 13, 24 * 9, "S")):
        for row, elem in zip(b.rows, b.elements):
            assert row.tolist() == list(elem.coeffs[::24])


def test_shorter_precision_is_a_prefix_of_the_cached_rows(monkeypatch):
    rng = random.Random(2024)
    for _ in range(12):
        ell = rng.choice((5, 7, 11, 13, 97, 193))
        k = rng.choice((0, 4, 12, 14, 22, 36, 50))
        kind = rng.choice("MS")
        need = 24 * (dims(k)[0] + k // 12 + 1)
        prec1 = need + rng.randrange(0, 60)
        prec2 = prec1 + rng.randrange(1, 200)
        _clear_caches(monkeypatch)
        cold = miller_basis(k, ell, prec1, kind).elements
        _clear_caches(monkeypatch)
        miller_basis(k, ell, prec2, kind)
        warm = miller_basis(k, ell, prec1, kind)
        assert warm.prec == prec1
        assert warm.elements == cold, (k, ell, kind, prec1, prec2)


def test_generators_are_built_once_per_ell(monkeypatch):
    _clear_caches(monkeypatch)
    sieve, lengths = spaces._e4_e6, []
    monkeypatch.setattr(spaces, "_e4_e6", lambda n: lengths.append(n) or sieve(n))
    miller_basis(24, 13, 24 * 10)
    warm = miller_basis(28, 13, 24 * 10, "S")
    assert lengths == [10]
    miller_basis(32, 13, 24 * 20)
    assert lengths == [10, 20]
    served = miller_basis(36, 13, 24 * 10)  # from a prefix of the longer generators
    _clear_caches(monkeypatch)
    assert (miller_basis(36, 13, 24 * 10).rows == served.rows).all()
    assert (miller_basis(28, 13, 24 * 10, "S").rows == warm.rows).all()
    assert lengths == [10, 20, 10]


def test_repeated_calls_return_the_same_object():
    b = miller_basis(20, 13, 24 * 9)
    miller_basis(20, 13, 24 * 20)  # a longer build replaces the cached rows
    assert miller_basis(20, 13, 24 * 9) is b


def test_int64_and_exact_paths_give_identical_rows(monkeypatch):
    ell = 97
    fast_m = miller_basis(40, ell, 24 * 12).rows
    fast_s = miller_basis(40, ell, 24 * 12, "S").rows
    _clear_caches(monkeypatch)
    monkeypatch.setattr(qseries, "_INT64_BOUND", 0)  # every kernel takes the exact path
    assert (miller_basis(40, ell, 24 * 12).rows == fast_m).all()
    assert (miller_basis(40, ell, 24 * 12, "S").rows == fast_s).all()


def test_cusp_rows_are_rows_of_the_full_space(monkeypatch):
    rng = random.Random(8)
    for _ in range(10):
        ell = rng.choice((5, 7, 13, 97, 10007, MERSENNE31))
        k = rng.choice((12, 16, 24, 26, 38, 50))
        prec = 24 * (dims(k)[0] + k // 12 + 1) + rng.randrange(0, 50)
        _clear_caches(monkeypatch)
        full = miller_basis(k, ell, prec)
        with monkeypatch.context() as m:
            m.setattr(spaces, "_spanning_rows", None)  # a build would call it
            cusp = miller_basis(k, ell, prec, "S")
        assert (cusp.rows == full.rows[1:]).all() and cusp.pivots == full.pivots[1:]
        assert list(spaces._ROW_CACHE) == [(k, ell)]
        # the reduced echelon form is unique: r = 24 makes the oracle span M_k
        oracle_rows = [row[::24] for row in eta_space_oracle(k, 24, ell, prec)[1]]
        assert cusp.rows.tolist() == oracle_rows[1:], (k, ell)


def test_delta_certifies_at_mersenne_prime():
    prec = 193
    delta = delta_series(prec).truncate(prec).reduce_mod(MERSENNE31)
    cert = coordinates(delta, miller_basis(12, MERSENNE31, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == (1,)


def test_delta_certifies_above_2_to_32():
    # the spanning set's leading coefficients used to overflow at this ell
    ell, prec = 4294967311, 193
    delta = delta_series(prec).truncate(prec).reduce_mod(ell)
    cert = coordinates(delta, miller_basis(12, ell, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == (1,)


def test_delta_squared_certifies_at_mersenne_prime():
    prec = 193
    d = delta_series(prec).truncate(prec)
    f = (d * d).truncate(prec).reduce_mod(MERSENNE31)
    cert = coordinates(f, miller_basis(24, MERSENNE31, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert cert.coordinates == (0, 1)
    bent = QExp24.from_dict({**dict(f.nonzero_items()), 96: 5}, prec, MERSENNE31)
    assert coordinates(bent, miller_basis(24, MERSENNE31, prec, "S"), prec) == NotMember(96)


def test_delta_and_its_square_certify_at_2_61_minus_1():
    # is_prime decides 2^61 - 1 at once, so the object-array path is reachable here
    ell, prec = 2**61 - 1, 193
    d = delta_series(prec)
    cert = coordinates(d.reduce_mod(ell), miller_basis(12, ell, prec, "S"), prec)
    assert cert.coordinates == (1,)
    cert = coordinates((d * d).truncate(prec).reduce_mod(ell), miller_basis(24, ell, prec, "S"), prec)
    assert cert.coordinates == (0, 1)


def _dense_witness(f, elements, coords, depth):
    # reference: the combination as a dense series, compared index by index
    ell = f.modulus
    for n in range(depth):
        want = sum(c * e.coeffs[n] for c, e in zip(coords, elements)) % ell
        if f.coeffs[n] != want:
            return n
    return None


def _perturbed(f, n, delta):
    coeffs = list(f.coeffs)
    coeffs[n] = (coeffs[n] + delta) % f.modulus
    return QExp24(coeffs, f.prec, f.modulus)


def _agree(result, witness) -> int:
    # a perturbation at a pivot only moves the coordinates: still a member
    if witness is None:
        assert isinstance(result, MembershipCertificate)
        return 0
    assert result == NotMember(witness)
    return 1


def test_verifier_witness_matches_dense_reference():
    rng = random.Random(97)
    refusals = 0
    for _ in range(40):
        ell = rng.choice((5, 7, 13, 29))
        k = rng.choice((12, 16, 24, 36))
        prec = 24 * (dims(k)[0] + k // 12 + 2)
        b = miller_basis(k, ell, prec)
        f = QExp24.zero(prec, ell)
        for e in b.elements:
            f = f + e.scale(rng.randrange(ell))
        n = rng.randrange(prec)  # on strand when n % 24 == 0, off it otherwise
        if rng.random() < 0.5:
            n -= n % 24
        g = _perturbed(f, n, rng.randrange(1, ell))
        coords = [g.coeffs[24 * p] for p in b.pivots]
        refusals += _agree(coordinates(g, b, prec), _dense_witness(g, b.elements, coords, prec))

        lam, r = rng.choice(((12, 1), (14, 5), (24, 1), (20, 13)))
        w, depth = membership_depth(lam, r)
        pivots, dense = eta_space_oracle(lam, r, ell, depth)
        elements = [QExp24(e, depth, ell) for e in dense]
        h = QExp24.zero(depth, ell)
        for e in elements:
            h = h + e.scale(rng.randrange(ell))
        n = rng.randrange(depth)
        if rng.random() < 0.5:
            n = max(r % 24, n - (n - r % 24) % 24)
        g = _perturbed(h, n, rng.randrange(1, ell))
        coords = [g.coeffs[p] for p in pivots]
        want = _dense_witness(g, elements, coords, depth)
        refusals += _agree(eta_membership(g, lam, r), want)
    assert refusals > 40


# === eta-multiplier membership against an independent reference ===

ORACLE_ELLS = (5, 7, 11, 13, 17, 29, 97, MERSENNE31, 3037000493)
PRIME_TO_6 = [r for r in range(1, 100) if math.gcd(r, 6) == 1]


@st.composite
def eta_membership_cases(draw):
    """(coeffs, prec, ell, lam, r, tag): an input series and the space it is tested in.

    The quotient weight w is drawn from w = 2 (mod 12) with dim M_w > 0,
    where one coefficient past the pivots is checked, from the even
    weights, and from every weight, including the empty spaces (w < 0,
    w odd or w = 2).
    """
    ell = draw(st.sampled_from(ORACLE_ELLS))
    r = draw(st.sampled_from(PRIME_TO_6))
    r0 = r % 24
    w = draw(st.one_of(
        st.integers(1, 6).map(lambda j: 12 * j + 2),
        st.integers(0, 40).map(lambda j: 2 * j),
        st.integers(-6, 80),
    ))
    lam = w - (1 - r0) // 2
    assume(lam >= 0)
    depth = membership_depth(lam, r)[1]
    prec = max(depth, 1) + draw(st.integers(0, 60))
    kind = draw(st.sampled_from(("on-strand", "perturbed member", "off-class", "zero")))
    rng = draw(st.randoms(use_true_random=False))
    coeffs = [0] * prec
    if kind == "on-strand" or kind == "off-class":
        coeffs[r0::24] = [rng.randrange(ell) for _ in range(r0, prec, 24)]
    if kind == "off-class":
        n = draw(st.integers(0, prec - 1).filter(lambda n: n % 24 != r0))
        coeffs[n] = rng.randrange(1, ell)
    if kind == "perturbed member":
        for e in eta_space_oracle(lam, r, ell, prec)[1]:
            c = rng.randrange(ell)
            coeffs = [(a + c * b) % ell for a, b in zip(coeffs, e)]
        n = draw(st.integers(0, prec - 1))
        if draw(st.booleans()) and r0 < prec:  # half of them on the strand, where the space constrains it
            n = r0 + 24 * (n // 24) if r0 + 24 * (n // 24) < prec else r0
        coeffs[n] = (coeffs[n] + draw(st.integers(0, ell - 1))) % ell
    on_class = all(c == 0 for n, c in enumerate(coeffs) if n % 24 != r0)
    tag = r0 if on_class and draw(st.booleans()) else None
    return coeffs, prec, ell, lam, r, tag


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eta_membership_cases())
def test_eta_membership_matches_oracle(case):
    coeffs, prec, ell, lam, r, tag = case
    depth = membership_depth(lam, r)[1]
    got = eta_membership(QExp24(coeffs, prec, ell, tag), lam, r)
    want = eta_membership_oracle(coeffs, lam, r, ell, depth)
    if want[0] == "not":
        assert got == NotMember(want[1])
    else:
        assert got == MembershipCertificate(*want[1:])


def test_certifying_without_a_checked_coefficient_builds_no_basis(monkeypatch):
    # w = 0, 0, 12 for eta, eta^7, eta^25; theta lifts of eta at ell = 5, 7, 11 have
    # w = 6, 8, 12 and compare nothing; at ell = 13, 37 they have w = 14, 38 and
    # check one coefficient
    _clear_caches(monkeypatch)
    for k, ell in ((1, 5), (7, 11), (25, 7)):
        lam = (k - 1) // 2
        prec = membership_depth(lam, k)[1] + 24
        cert = certify(_eta_power(k, prec, ell), lam, k).certificate
        assert cert.checked == 0
    for ell in (5, 7, 11, 13, 37):
        lifted = theta_lift(eta_form(24 * 8, ell))
        w = membership_depth(lifted.lam, 1)[0]
        assert lifted.certificate.checked == (1 if w % 12 == 2 else 0), ell
    assert spaces._ROW_CACHE == {}


def test_the_checked_coefficient_is_a_constant_term(monkeypatch):
    # theta of eta at ell = 13 lies at lam = 14, w = 14 = 2 (mod 12): one
    # coefficient past the pivots is checked.  The constant term pairs it
    # with the pivot, so a change at either is refused at index 25.
    _clear_caches(monkeypatch)
    lifted = theta_lift(eta_form(24 * 8, 13))
    assert lifted.certificate == MembershipCertificate((6,), 49, 1)
    series = dict(lifted.series.nonzero_items())
    for n in (1, 25):
        bent = QExp24.from_dict({**series, n: series.get(n, 0) + 1}, lifted.series.prec, 13)
        assert eta_membership(bent, lifted.lam, 1) == NotMember(25), n
    assert spaces._ROW_CACHE == {}


def test_constant_term_of_weight_two_quotients_over_z():
    # c = prod (1 - q^j)^(-N) from the spaces kernels, checked against the
    # oracle's product formula; every eta^r0 Delta^j E4^a E6 of weight
    # w = 12m + 2 is built by the oracle and must pair to 0 with c.  Mod a
    # prime far above every coefficient, that is the identity over Z.
    big = 2**127 - 1
    for m in range(1, 12):
        n = m + 1
        e4 = [1] + [240 * sigma_oracle(i, 3) % big for i in range(1, n)]
        e6 = [1] + [-504 * sigma_oracle(i, 5) % big for i in range(1, n)]
        for r0 in (0, 1, 5, 7, 11, 13, 23):
            N = r0 + 24 * m
            c = spaces._power(spaces._inverse(_square_strand(1, n, big), big, n), N, big, n)
            assert c[0] == 1
            assert _poly_mul([int(x) for x in c], _euler_power(N, n), big) == [1] + [0] * m
            for j in range(m):
                f = [0] * j + [x % big for x in _euler_power(r0 + 24 * j, n - j)]
                for factor, e in ((e4, 3 * (m - j) - 1), (e6, 1)):
                    for _ in range(e):
                        f = _poly_mul(f, factor, big)
                assert sum(f[i] * int(c[m - i]) for i in range(n)) % big == 0, (m, r0, j)


def test_checked_coefficient_refusal_above_2_to_64():
    # eta^5 E4^5 E6 at r = 5 lies at lam = 28, w = 26 = 12 * 2 + 2: the
    # coefficient at r0 + 24 m = 53 is checked, and a change there is refused
    ell, lam, r = 2**64 + 13, 28, 5
    w, depth = membership_depth(lam, r)
    assert (w, depth) == (26, 77)
    prec = depth + 24
    f = _eta_power(5, prec, ell)
    for series in (eisenstein_e4(prec),) * 5 + (eisenstein_e6(prec),):
        f = (f * series.reduce_mod(ell)).truncate(prec)
    cert = eta_membership(f, lam, r)
    assert isinstance(cert, MembershipCertificate) and cert.checked == 1
    bent = QExp24.from_dict({**dict(f.nonzero_items()), 53: f.coeff(53) + 1}, prec, ell)
    assert eta_membership(bent, lam, r) == NotMember(53)
