"""Tests for integer-weight spaces, certificates, filtration, eta realization."""

import math
import random
import tracemalloc

import numpy as np
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
    dims,
    eta_membership,
    filtration,
    membership_depth,
    miller_basis,
)

from oracles import (
    _euler_power,
    _poly_mul,
    delta_product_coeffs,
    eisenstein_coeffs,
    eta_membership_oracle,
    eta_product_coeffs,
    eta_space_oracle,
    miller_basis_oracle,
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


# === E4, E6 and Delta from the one generator ===

# int64 storage up to 3037000493 (the largest prime whose residue products
# fit), Python integers from 3037000507 on
GENERATOR_ELLS = (5, 7, 13, 97, 691, 2**31 - 1, 3037000493, 3037000507, 2**61 - 1, 2**64 + 13)
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)


def _generated(cold_caches, ell, length):
    """E4, E6, t and Delta of spaces._tables, built cold, in the ring's storage dtype."""
    cold_caches()
    strands = [strand[:length] for strand in spaces._tables(ell, length, 2)[:4]]
    for strand in strands:
        assert strand.dtype == (np.int64 if ell <= 3037000493 else object) and strand.size == length
    return strands


def _e4(prec, ell):
    return QExp24(eisenstein_coeffs(prec, 4), prec, ell, 0)


def _e6(prec, ell):
    return QExp24(eisenstein_coeffs(prec, 6), prec, ell, 0)


def _delta(prec, ell):
    return QExp24(delta_product_coeffs(prec), prec, ell, 0)


def test_e4_coefficients(cold_caches):
    for ell in GENERATOR_ELLS:
        e4 = _generated(cold_caches, ell, 6)[0]
        assert e4.tolist() == [1] + [240 * sigma_oracle(n, 3) % ell for n in range(1, 6)], ell


def test_e6_coefficients(cold_caches):
    for ell in GENERATOR_ELLS:
        e6 = _generated(cold_caches, ell, 6)[1]
        assert e6.tolist() == [1] + [-504 * sigma_oracle(n, 5) % ell for n in range(1, 6)], ell


def test_delta_first_coefficients(cold_caches):
    # tau(1..10)
    for ell in GENERATOR_ELLS:
        delta = _generated(cold_caches, ell, 11)[3]
        assert delta.tolist() == [0] + [tau % ell for tau in TAU], ell


def test_delta_matches_product_oracle(cold_caches):
    # (E4^3 - E6^2) / 1728 against q prod (1 - q^n)^24
    want = delta_product_coeffs(24 * 40)[::24]
    for ell in GENERATOR_ELLS:
        assert _generated(cold_caches, ell, 40)[3].tolist() == [c % ell for c in want], ell


def test_delta_691_congruence(cold_caches):
    # tau(n) = sigma_11(n) mod 691 for all n
    delta = _generated(cold_caches, 691, 60)[3]
    for n in range(1, 60):
        assert delta[n] == sigma_oracle(n, 11) % 691


def test_discriminant_relation(cold_caches):
    # E4^3 - E6^2 = 1728 Delta and t E4^3 = Delta, with Delta from the product
    prec = 24 * 12
    for ell in GENERATOR_ELLS:
        e4, e6, t, _ = (
            QExp24.from_dict(dict(zip(range(0, prec, 24), s.tolist())), prec, ell, 0)
            for s in _generated(cold_caches, ell, 12)
        )
        delta = _delta(prec, ell)
        assert e4**3 - e6**2 == delta.scale(1728), ell
        assert t * e4**3 == delta, ell


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
    assert tuple(cert.coordinates) == (3, 7, 10)
    assert cert.depth == prec
    assert cert.checked == 8 - 3  # integer exponents below depth minus pivots


def test_certificate_coordinates_are_a_read_only_array_in_the_storage_dtype():
    prec = 24 * 8
    for ell in (11, 2**64 + 13):
        b = miller_basis(24, ell, prec)
        f = b.elements[0].scale(3) + b.elements[2].scale(10)
        cert = coordinates(f, b, prec)
        assert cert.coordinates.dtype == (np.int64 if ell == 11 else object)
        assert not cert.coordinates.flags.writeable
        assert tuple(cert.coordinates) == (3, 0, 10)
        # certificates compare by value
        assert coordinates(b.elements[2].scale(10) + b.elements[0].scale(3), b, prec) == cert
        assert coordinates(f, b, prec - 24) != cert
        assert coordinates(f + b.elements[1], b, prec) != cert


def test_coordinates_rejects_outsider():
    ell = 5
    prec = 24 * 6
    b = miller_basis(12, ell, prec)
    # a series off the integer exponents is refused at its first nonzero
    # index; no series holds both it and a member
    f = QExp24.from_dict({30: 1, 54: 2}, prec=prec, modulus=ell, residue=6)
    res = coordinates(f, b, prec)
    assert isinstance(res, NotMember)
    assert res.witness == 30
    with pytest.raises(ValueError, match="have no sum"):
        b.elements[1] + f


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
        coordinates(QExp24.zero(60, modulus=7, residue=0), b, 30)  # ring mismatch


def test_random_members_certify():
    rng = random.Random(1411)
    for ell in (5, 13, 3037000493):
        for k in (12, 20, 28):
            prec = 24 * (dims(k)[0] + k // 12 + 2)
            b = miller_basis(k, ell, prec)
            for _ in range(5):
                coeffs = [rng.randrange(ell) for _ in range(b.dim)]
                f = QExp24.zero(prec, modulus=ell, residue=0)
                for c, e in zip(coeffs, b.elements):
                    f = f + e.scale(c)
                cert = coordinates(f, b, prec)
                assert isinstance(cert, MembershipCertificate)
                assert tuple(cert.coordinates) == tuple(coeffs)


# === filtration ===


def test_filtration_of_delta():
    for ell in (5, 7, 11, 13):
        prec = 24 * 10
        f = _delta(prec, ell)
        assert filtration(f, 12) == 12


def test_filtration_detects_drop():
    # E4 = 1 mod 5 and E6 = 1 mod 7 (weight ell - 1 collapses to weight 0)
    assert filtration(_e4(24 * 3, 5), 4) == 0
    assert filtration(_e6(24 * 3, 7), 6) == 0
    # so delta * E4 drops from 16 back to 12 mod 5
    prec = 24 * 10
    f = _delta(prec, 5) * _e4(prec, 5)
    assert filtration(f, 16) == 12


def test_filtration_of_delta_square():
    f = _delta(24 * 10, 5) ** 2
    assert filtration(f, 24) == 24


def test_filtration_after_theta():
    # theta raises filtration by ell + 1 exactly when ell does not divide it
    ell = 5
    f = theta_op(_delta(24 * 12, ell))
    assert filtration(f, 12 + ell + 1) == 18


def test_filtration_validation():
    ell = 5
    z = QExp24.zero(24 * 4, modulus=ell, residue=0)
    with pytest.raises(ValueError):
        filtration(z, 12)
    f = _delta(24 * 4, ell)
    with pytest.raises(ValueError):
        filtration(f, 11)  # odd weight
    with pytest.raises(ValueError):
        filtration(eta_series(24 * 4, 5), 12)  # fractional support
    with pytest.raises(PrecisionError):
        filtration(f.truncate(48), 12)


def _filtration_upward(f, k):
    # the least candidate k' = k (mod ell - 1) that passes, scanning up from k mod (ell - 1)
    ell = f.modulus
    depth = 24 * (k // 12 + 1) + 1
    for k2 in range(k % (ell - 1), k + 1, ell - 1):
        if dims(k2)[0]:
            basis = miller_basis(k2, ell, spaces._basis_prec(k2, depth), "M")
            if isinstance(coordinates(f, basis, depth), MembershipCertificate):
                return k2
    return None


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_filtration_scan_down_equals_the_upward_scan(ell):
    # the spaces are nested mod ell, so the top-down scan finds the least pass
    rng = random.Random(ell)
    for k in range(12, 37, 2):
        if dims(k)[1] == 0:
            continue
        prec = 24 * (2 * k // 12 + ell) + 49
        basis = miller_basis(k, ell, prec, "S")
        coords = [rng.randrange(ell) for _ in range(basis.dim)]
        coords[rng.randrange(basis.dim)] = 1
        f = QExp24.zero(prec, ell, 0)
        for c, elem in zip(coords, basis.elements):
            f = f + elem.scale(c)
        for g, kg in ((f, k), (theta_op(f), k + ell + 1), ((f * f).truncate(prec), 2 * k)):
            for kk in (kg, kg + ell - 1, kg + 2 * (ell - 1)):
                assert filtration(g, kk) == _filtration_upward(g, kk), (k, kg, kk)
        bent = f + QExp24.from_dict({24 * (k // 12): 1}, prec, ell, 0)
        if _filtration_upward(bent, k) is None:
            with pytest.raises(CertificationError):
                filtration(bent, k)
        else:
            assert filtration(bent, k) == _filtration_upward(bent, k)


def test_filtration_rejects_non_member():
    ell = 5
    junk = QExp24.from_dict({0: 1, 24: 2, 48: 4, 72: 3, 96: 1, 120: 2},
                            prec=24 * 6 + 1, modulus=ell, residue=0)
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
        eta_membership(QExp24.zero(48, modulus=6, residue=1), 0, 1)  # no ring F_6


def test_eta_membership_eta_powers():
    # eta^r sits in the (lam, r) space with lam = (r - 1) / 2 for r < 24
    for ell, r in ((5, 1), (7, 5), (11, 7), (5, 13)):
        lam = (r - 1) // 2
        w, depth = membership_depth(lam, r)
        f = (eta_series(depth + 24, ell) ** r).truncate(depth)
        cert = eta_membership(f, lam, r)
        assert isinstance(cert, MembershipCertificate), (ell, r)
        assert tuple(cert.coordinates) == (1,)
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
    assert tuple(cert.coordinates) == ()
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
    eta = QExp24(eta_product_coeffs(prec), prec, ell, 1)
    e4_terms = {24 * n: 240 * sigma_oracle(n, 3) for n in range(1, 4)}
    e4 = QExp24.from_dict({0: 1, **e4_terms}, prec, ell, 0)
    delta = QExp24(delta_product_coeffs(prec), prec, ell, 0)
    eta_e4_cube = (eta * e4 * e4 * e4).truncate(prec)
    c = eta_e4_cube.coeff(25)
    f = eta_e4_cube.scale(4) + (eta * delta).truncate(prec).scale(6 - 4 * c)
    cert = eta_membership(f, lam, r)
    assert isinstance(cert, MembershipCertificate)
    assert tuple(cert.coordinates) == (4, 6)


def test_eta_membership_precision_gate():
    ell = 5
    f = eta_series(20, ell)
    with pytest.raises(PrecisionError):
        eta_membership(f, 0, 1)  # needs 25


# === row-matrix bases: prefixes, exact kernels, shared verifier ===

MERSENNE31 = 2**31 - 1


def test_e4_e6_sieve_matches_divisor_sigma(cold_caches):
    # the sieve over Z, and the generator's E4 and E6 mod each ell
    e4_z, e6_z = spaces._e4_e6(61)
    assert e4_z == eisenstein_coeffs(24 * 60 + 1, 4)[::24]
    assert e6_z == eisenstein_coeffs(24 * 60 + 1, 6)[::24]
    for ell in GENERATOR_ELLS:
        e4, e6 = _generated(cold_caches, ell, 61)[:2]
        for n in range(1, 61):
            assert e4[n] == 240 * divisor_sigma(n, 3) % ell
            assert e6[n] == -504 * divisor_sigma(n, 5) % ell


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


def test_shorter_precision_is_a_prefix_of_the_cached_rows(cold_caches):
    rng = random.Random(2024)
    for _ in range(12):
        ell = rng.choice((5, 7, 11, 13, 97, 193))
        k = rng.choice((0, 4, 12, 14, 22, 36, 50))
        kind = rng.choice("MS")
        need = 24 * (dims(k)[0] + k // 12 + 1)
        prec1 = need + rng.randrange(0, 60)
        prec2 = prec1 + rng.randrange(1, 200)
        cold_caches()
        cold = miller_basis(k, ell, prec1, kind).elements
        cold_caches()
        miller_basis(k, ell, prec2, kind)
        warm = miller_basis(k, ell, prec1, kind)
        assert warm.prec == prec1
        assert warm.elements == cold, (k, ell, kind, prec1, prec2)


def test_generators_are_built_once_per_ell(cold_caches, monkeypatch):
    sieve, lengths = spaces._e4_e6, []
    monkeypatch.setattr(spaces, "_e4_e6", lambda n: lengths.append(n) or sieve(n))
    miller_basis(24, 13, 24 * 10)
    warm = miller_basis(28, 13, 24 * 10, "S")
    assert lengths == [10]
    miller_basis(32, 13, 24 * 20)
    assert lengths == [10, 20]
    served = miller_basis(36, 13, 24 * 10)  # from a prefix of the longer generators
    cold_caches()
    assert (miller_basis(36, 13, 24 * 10).rows == served.rows).all()
    assert (miller_basis(28, 13, 24 * 10, "S").rows == warm.rows).all()
    assert lengths == [10, 20, 10]


def test_a_basis_builds_only_the_generators_its_rows_read(cold_caches, monkeypatch):
    # M_0 is the constants; a weight with dim M_k = 1 reads E4 and E6 only
    sieve, lengths = spaces._e4_e6, []
    monkeypatch.setattr(spaces, "_e4_e6", lambda n: lengths.append(n) or sieve(n))
    monkeypatch.setattr(spaces, "_inverse", None)  # building t would call it
    assert miller_basis(0, 13, 24 * 10).rows.tolist() == [[1] + [0] * 9]
    assert lengths == [] and spaces._GENERATOR_CACHE == {}
    for k in (4, 6, 8, 10, 14):
        miller_basis(k, 13, 24 * 10)
    assert lengths == [10] and spaces._GENERATOR_CACHE[13][2].size == 0


# the eight rings of test_strands.py, and 2^61 - 1
ORACLE_RINGS = (5, 7, 13, 2**31 - 1, 3037000493, 3037000507, 4294967311, 2**61 - 1, 2**64 + 13)


def _matches_oracle(k, ell, length):
    b = miller_basis(k, ell, 24 * length)
    assert b.rows.tolist() == miller_basis_oracle(k, ell, length), (k, ell, length)
    assert b.rows.dtype == (np.int64 if ell <= 3037000493 else object)


def test_miller_rows_equal_the_oracle_in_every_ring(cold_caches):
    # every even weight up to 120 from cold tables, at the shortest length
    # each allows: the tables grow in length and in D along the way
    for ell in ORACLE_RINGS:
        cold_caches()
        for k in range(4, 121, 2):
            _matches_oracle(k, ell, dims(k)[0] + k // 12 + 1)


@pytest.mark.parametrize("ell", (13, 3037000507))
def test_miller_rows_equal_the_oracle_across_table_growth(cold_caches, ell):
    tables = spaces._GENERATOR_CACHE
    # length: built at 8, grown to 16 one past it, to 32 one past that
    for length, size in ((8, 8), (9, 16), (16, 16), (17, 32)):
        _matches_oracle(24, ell, length)
        assert tables[ell][0].size == size
    # D: 3 from dim M_24, then 6 one past it, then 12 one past that
    for k, d in ((36, 6), (60, 6), (72, 12)):
        _matches_oracle(k, ell, 17)
        assert len(tables[ell][6]) == d
    # long then short: a small dimension reads the leading blocks of D = 11
    cold_caches()
    _matches_oracle(120, ell, 30)
    for k in (12, 24, 26, 50, 70):
        _matches_oracle(k, ell, dims(k)[0] + k // 12 + 1)


def test_a_basis_from_warm_tables_costs_a_fixed_number_of_products(cold_caches, monkeypatch):
    # once an ell's tables cover the length and dimension, a basis costs the
    # popcount(a) - 1 + b products of row0 = E4^a E6^b and, past dimension
    # 1, one product of the powers t^j with row0, two matrix products and
    # one short inverse, whatever k and dm are
    ell = 97
    miller_basis(120, ell, 24 * 30)  # E4^30: squares up to E4^16; D = 11
    counts = {"_conv": 0, "_conv_rows": 0, "_dot": 0, "_inverse": 0}
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(spaces, name)):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(spaces, name, counted)
    for k in range(4, 119, 2):
        counts.update(dict.fromkeys(counts, 0))
        miller_basis(k, ell, 24 * (dims(k)[0] + k // 12 + 1))
        b = k % 4 // 2
        a = (k - 6 * b) // 4
        products = 1 if dims(k)[0] > 1 else 0
        assert counts == {
            "_conv": bin(a).count("1") - 1 + b,
            "_conv_rows": products,
            "_dot": 2 * products,
            "_inverse": products,
        }, k


def test_a_long_basis_stores_no_length_squared_matrix(cold_caches):
    # the rows t^j row0 come from a Toeplitz view of row0 (2 L - 1 entries):
    # at L = 4000 one int64 L x L matrix would take 128 MB
    length = 4000
    tracemalloc.start()
    try:
        b = miller_basis(24, 13, 24 * length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert b.rows.shape == (3, length)
    assert b.rows[:, :8].tolist() == miller_basis_oracle(24, 13, 8)
    assert peak < 8 * length * length / 16, peak


def test_repeated_calls_return_the_same_object():
    b = miller_basis(20, 13, 24 * 9)
    miller_basis(20, 13, 24 * 20)  # a longer build replaces the cached rows
    assert miller_basis(20, 13, 24 * 9) is b


def _refuse(*args, **kwargs):
    raise AssertionError("a warm call did work it had done before")


def test_a_repeated_basis_call_is_one_lookup(cold_caches, monkeypatch):
    # the stored basis is returned before any argument is checked or any
    # table or row is read
    calls = [(k, ell, prec, kind) for k in (12, 24, 38) for ell in (13, 2**64 + 13)
             for prec in (24 * 9, 24 * 9 + 5) for kind in "MS"]
    first = [miller_basis(*call) for call in calls]
    for name in ("_miller_rows", "_tables", "_validate_modulus"):
        monkeypatch.setattr(spaces, name, _refuse)
    assert all(miller_basis(*call) is basis for call, basis in zip(calls, first))
    with pytest.raises(AssertionError):  # a new precision is a new basis
        miller_basis(12, 13, 24 * 10)


def test_a_warm_filtration_builds_no_certificate_and_one_product_per_candidate(monkeypatch):
    # a member of S_k read at weight k + j (ell - 1): every candidate of the
    # scan, down to the first that fails, is one _dot, and nothing builds a
    # MembershipCertificate
    rng = random.Random(29)
    for ell in (5, 7, 13):
        for k, j in ((12, 0), (16, 1), (24, 2), (36, 1)):
            weight = k + j * (ell - 1)
            prec = 24 * (2 * (weight // 12) + 3)
            basis = miller_basis(k, ell, prec, "S")
            f = basis.elements[0]
            for elem in basis.elements[1:]:
                f = f + elem.scale(rng.randrange(ell))
            least = filtration(f, weight)  # warms every candidate's basis
            dots = []
            with monkeypatch.context() as m:
                m.setattr(spaces, "MembershipCertificate", _refuse)
                m.setattr(spaces, "_miller_rows", _refuse)
                m.setattr(spaces, "_dot", lambda *args, _dot=spaces._dot: dots.append(1) or _dot(*args))
                assert filtration(f, weight) == least
            scanned = range(weight, least - (ell - 1) - 1, -(ell - 1))
            assert len(dots) == sum(dims(k2)[0] > 0 for k2 in scanned), (ell, k, j)


def test_int64_and_exact_paths_give_identical_rows(cold_caches, monkeypatch):
    ell = 97
    fast_m = miller_basis(40, ell, 24 * 12).rows
    fast_s = miller_basis(40, ell, 24 * 12, "S").rows
    cold_caches()
    monkeypatch.setattr(qseries, "_INT64_BOUND", 0)  # every kernel takes the exact path
    assert (miller_basis(40, ell, 24 * 12).rows == fast_m).all()
    assert (miller_basis(40, ell, 24 * 12, "S").rows == fast_s).all()


def test_cusp_rows_are_rows_of_the_full_space(cold_caches, monkeypatch):
    rng = random.Random(8)
    for _ in range(10):
        ell = rng.choice((5, 7, 13, 97, 10007, MERSENNE31))
        k = rng.choice((12, 16, 24, 26, 38, 50))
        prec = 24 * (dims(k)[0] + k // 12 + 1) + rng.randrange(0, 50)
        cold_caches()
        full = miller_basis(k, ell, prec)
        with monkeypatch.context() as m:
            m.setattr(spaces, "_miller_rows", None)  # a build would call it
            cusp = miller_basis(k, ell, prec, "S")
        assert (cusp.rows == full.rows[1:]).all() and cusp.pivots == full.pivots[1:]
        assert list(spaces._ROW_CACHE) == [(k, ell)]
        # the reduced echelon form is unique: r = 24 makes the oracle span M_k
        oracle_rows = [row[::24] for row in eta_space_oracle(k, 24, ell, prec)[1]]
        assert cusp.rows.tolist() == oracle_rows[1:], (k, ell)


def test_delta_certifies_at_mersenne_prime():
    prec = 193
    delta = _delta(prec, MERSENNE31)
    cert = coordinates(delta, miller_basis(12, MERSENNE31, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert tuple(cert.coordinates) == (1,)


def test_delta_certifies_above_2_to_32():
    # the spanning set's leading coefficients used to overflow at this ell
    ell, prec = 4294967311, 193
    delta = _delta(prec, ell)
    cert = coordinates(delta, miller_basis(12, ell, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert tuple(cert.coordinates) == (1,)


def test_delta_squared_certifies_at_mersenne_prime():
    prec = 193
    d = _delta(prec, MERSENNE31)
    f = (d * d).truncate(prec)
    cert = coordinates(f, miller_basis(24, MERSENNE31, prec, "S"), prec)
    assert isinstance(cert, MembershipCertificate)
    assert tuple(cert.coordinates) == (0, 1)
    bent = QExp24.from_dict({**dict(f.nonzero_items()), 96: 5}, prec, MERSENNE31, 0)
    assert coordinates(bent, miller_basis(24, MERSENNE31, prec, "S"), prec) == NotMember(96)


def test_delta_and_its_square_certify_at_2_61_minus_1():
    # is_prime decides 2^61 - 1 at once, so the object-array path is reachable here
    ell, prec = 2**61 - 1, 193
    d = _delta(prec, ell)
    cert = coordinates(d, miller_basis(12, ell, prec, "S"), prec)
    assert tuple(cert.coordinates) == (1,)
    cert = coordinates((d * d).truncate(prec), miller_basis(24, ell, prec, "S"), prec)
    assert tuple(cert.coordinates) == (0, 1)


def _dense_witness(f, elements, coords, depth):
    # reference: the combination as a dense series, compared index by index
    ell = f.modulus
    for n in range(depth):
        want = sum(c * e.coeffs[n] for c, e in zip(coords, elements)) % ell
        if f.coeffs[n] != want:
            return n
    return None


def _perturbed(f, n, delta):
    """f with delta added at index n; off f's class, which no series shares with f, delta at n alone."""
    if n % 24 != f.residue:
        return QExp24.from_dict({n: delta}, f.prec, f.modulus, n % 24)
    coeffs = list(f.coeffs)
    coeffs[n] = (coeffs[n] + delta) % f.modulus
    return QExp24(coeffs, f.prec, f.modulus, f.residue)


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
        f = QExp24.zero(prec, ell, 0)
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
        elements = [QExp24(e, depth, ell, r % 24) for e in dense]
        h = QExp24.zero(depth, ell, r % 24)
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


# === the one verifier against the oracles, in every ring and on both kernel paths ===

# the eight rings of test_strands.py: int64 storage through 3037000493
STRAND_RINGS = (5, 7, 13, 2**31 - 1, 3037000493, 3037000507, 4294967311, 2**64 + 13)


def _oracle_coordinates(coeffs, rows, start, ell, depth):
    """coordinates' answer from oracle rows with pivots start ..: a certificate's fields or the witness.

    The first index below depth where coeffs differs from the combination
    of rows at its pivots is the witness, off the integer exponents too.
    """
    coords = tuple(coeffs[24 * (start + i)] for i in range(len(rows)))
    for n in range(depth):
        want = sum(c * row[n // 24] for c, row in zip(coords, rows)) % ell if n % 24 == 0 else 0
        if coeffs[n] != want:
            return ("not", n)
    return ("member", coords, depth, len(range(0, depth, 24)) - len(rows))


def _oracle_filtration(coeffs, k, ell):
    """The least k' = k (mod ell - 1), 0 <= k' <= k, with coeffs in M_k' below k's Sturm depth, or None."""
    depth = 24 * (k // 12 + 1) + 1
    passing = []
    for k2 in range(k, -1, -(ell - 1)):
        rows = miller_basis_oracle(k2, ell, depth // 24 + 1)
        if rows and _oracle_coordinates(coeffs, rows, 0, ell, depth)[0] == "member":
            passing.append(k2)
    return min(passing) if k in passing else None


def _combination(rows, ell, rng, prec):
    """A random combination of the oracle rows, as a dense list on the integer exponents."""
    coeffs = [0] * prec
    for row in rows:
        c = rng.randrange(ell)
        for i in range(len(range(0, prec, 24))):
            coeffs[24 * i] = (coeffs[24 * i] + c * row[i]) % ell
    return coeffs


def _got(result):
    if isinstance(result, NotMember):
        return ("not", result.witness)
    return ("member", tuple(result.coordinates), result.depth, result.checked)


@pytest.mark.parametrize("exact", (False, True), ids=("int64", "exact"))
@pytest.mark.parametrize("ell", STRAND_RINGS)
def test_the_verifier_matches_the_oracles_in_every_ring(cold_caches, monkeypatch, ell, exact):
    # coordinates on M_k and S_k (pivots from 1) and on empty spaces,
    # filtration and eta_membership, for members, members changed at a
    # random strand index and series on another class, with the kernels'
    # int64 sums and with every sum in Python integers
    if exact:
        monkeypatch.setattr(qseries, "_INT64_BOUND", 0)
    rng = random.Random(ell)
    for k in (0, 2, 4, 12, 16, 24, 26, 36):
        for kind, start in (("M", 0), ("S", 1)):
            prec = 24 * (dims(k)[0] + k // 12 + 1) + rng.randrange(1, 60)
            basis = miller_basis(k, ell, prec, kind)
            rows = miller_basis_oracle(k, ell, len(range(0, prec, 24)))[start:]
            assert basis.rows.tolist() == rows and basis.pivots == tuple(range(start, start + len(rows)))
            for shape in ("member", "changed", "off-class"):
                coeffs = _combination(rows, ell, rng, prec)
                n = len(range(0, prec, 24))
                if shape == "changed":
                    i = rng.randrange(n)
                    coeffs[24 * i] = (coeffs[24 * i] + rng.randrange(1, ell)) % ell
                residue = 0
                if shape == "off-class":  # zero below a random entry, which may lie past the pivots
                    residue, i = rng.randrange(1, 24), rng.randrange(n)
                    coeffs = [0] * prec
                    for m in range(i, len(range(residue, prec, 24))):
                        coeffs[residue + 24 * m] = rng.randrange(1, ell)
                f = QExp24(coeffs, prec, ell, residue)
                low = 24 * (start + len(rows) - 1) + 1 if rows else 1
                for depth in (low, rng.randrange(low, prec + 1), prec):
                    want = _oracle_coordinates(coeffs, rows, start, ell, depth)
                    assert _got(coordinates(f, basis, depth)) == want, (k, kind, shape, depth)
    for k in (12, 16, 22, 26):  # filtration: cusp forms at k, read at k + j (ell - 1)
        for j in (0, 1, 2) if ell < 50 else (0,):
            weight = k + j * (ell - 1)
            prec = 24 * (weight // 12 + 1) + 1 + rng.randrange(0, 30)
            rows = miller_basis_oracle(k, ell, len(range(0, prec, 24)))[1:]
            coeffs = [0] * prec
            while not any(coeffs):
                coeffs = _combination(rows, ell, rng, prec)
            for changed in (False, True):
                if changed:  # below the Sturm depth, where the candidates are compared
                    i = rng.randrange(weight // 12 + 2)
                    coeffs[24 * i] = (coeffs[24 * i] + rng.randrange(1, ell)) % ell
                want = _oracle_filtration(coeffs, weight, ell)
                assert changed or want is not None  # S_k E_(ell-1)^j lies in M_weight
                f = QExp24(coeffs, prec, ell, 0)
                if want is None:
                    with pytest.raises(CertificationError):
                        filtration(f, weight)
                elif any(coeffs):
                    assert filtration(f, weight) == want, (k, weight, changed)
    for r0 in (1, 5, 13, 23):  # eta_membership: w in an empty space, w = 0, 12, 14 and 26
        for w in (-2, 0, 12, 14, 26):
            lam = w + (r0 - 1) // 2
            if lam < 0:
                continue
            prec = max(membership_depth(lam, r0)[1], r0 + 1) + rng.randrange(0, 60)
            elements = eta_space_oracle(lam, r0, ell, prec)[1]
            for shape in ("member", "changed", "off-class"):
                coeffs = [0] * prec
                for element in elements:
                    c = rng.randrange(ell)
                    coeffs = [(a + c * b) % ell for a, b in zip(coeffs, element)]
                residue = r0
                if shape == "changed":
                    n = r0 + 24 * rng.randrange(len(range(r0, prec, 24)))
                    coeffs[n] = (coeffs[n] + rng.randrange(1, ell)) % ell
                if shape == "off-class":
                    residue = rng.choice([c for c in range(min(prec, 24)) if c != r0])
                    coeffs = [0] * prec
                    coeffs[residue::24] = [rng.randrange(ell) for _ in range(residue, prec, 24)]
                    coeffs[residue] = 1
                f = QExp24(coeffs, prec, ell, residue)
                for depth in (None, prec):
                    want = eta_membership_oracle(coeffs, lam, r0, ell, depth or membership_depth(lam, r0)[1])
                    assert _got(eta_membership(f, lam, r0, depth)) == want, (r0, w, shape, depth)


# === eta-multiplier membership against an independent reference ===

ORACLE_ELLS = (5, 7, 11, 13, 17, 29, 97, MERSENNE31, 3037000493)
PRIME_TO_6 = [r for r in range(1, 100) if math.gcd(r, 6) == 1]


@st.composite
def eta_membership_cases(draw):
    """(coeffs, prec, ell, lam, r, residue): an input series on its class and the space it is tested in.

    The quotient weight w is drawn from w = 2 (mod 12) with dim M_w > 0,
    where one coefficient past the pivots is checked, from the even
    weights, and from every weight, including the empty spaces (w < 0,
    w odd or w = 2).  The series lies on the space's class r0, or on
    another class, and zero lies on any class.
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
    if kind == "on-strand":
        coeffs[r0::24] = [rng.randrange(ell) for _ in range(r0, prec, 24)]
    if kind == "off-class":
        n = draw(st.integers(0, prec - 1).filter(lambda n: n % 24 != r0))
        coeffs[n % 24 :: 24] = [rng.randrange(ell) for _ in range(n % 24, prec, 24)]
        coeffs[n] = rng.randrange(1, ell)
    if kind == "perturbed member":
        for e in eta_space_oracle(lam, r, ell, prec)[1]:
            c = rng.randrange(ell)
            coeffs = [(a + c * b) % ell for a, b in zip(coeffs, e)]
        n = r0 + 24 * draw(st.integers(0, prec // 24))  # on the strand, where the space constrains it
        if n < prec:
            coeffs[n] = (coeffs[n] + draw(st.integers(0, ell - 1))) % ell
    support = {n % 24 for n, c in enumerate(coeffs) if c}
    assert len(support) <= 1
    residue = support.pop() if support else draw(st.one_of(st.just(r0), st.integers(0, 23)))
    return coeffs, prec, ell, lam, r, residue


@settings(max_examples=200, deadline=None, derandomize=True)
@given(eta_membership_cases(), st.booleans())
def test_eta_membership_matches_oracle(case, full):
    # depth None is the Sturm depth, for a series in its space by
    # construction; depth = prec compares every coefficient a series has
    coeffs, prec, ell, lam, r, residue = case
    depth = prec if full else None
    got = eta_membership(QExp24(coeffs, prec, ell, residue), lam, r, depth)
    want = eta_membership_oracle(coeffs, lam, r, ell, depth or membership_depth(lam, r)[1])
    if want[0] == "not":
        assert got == NotMember(want[1])
    else:
        assert got == MembershipCertificate(*want[1:])


@pytest.mark.parametrize("r0", (1, 5, 7, 11, 13, 17, 19, 23))
def test_a_full_depth_check_multiplies_by_eta_where_the_oracle_divides(r0):
    # past the Sturm depth f is compared with eta^r0 times the combination
    # of the rows at the quotient's coordinates, which are read from f over
    # the pivots alone; members of spaces of dimension 1 and 2, and members
    # changed at a random strand index, just past the pivots and at the last
    # one, get the oracle's certificate or witness
    rng = random.Random(r0)
    for ell in (5, 13, 3037000507):
        for w in (0, 12, 26):
            lam = w + (r0 - 1) // 2
            prec = membership_depth(lam, r0)[1] + 24 * 10
            n = len(range(r0, prec, 24))
            _, elements = eta_space_oracle(lam, r0, ell, prec)
            for at in (None, rng.randrange(n), len(elements), n - 1):
                coeffs = [0] * prec
                for element in elements:
                    c = rng.randrange(ell)
                    coeffs = [(a + c * b) % ell for a, b in zip(coeffs, element)]
                if at is not None:
                    coeffs[r0 + 24 * at] = (coeffs[r0 + 24 * at] + rng.randrange(1, ell)) % ell
                got = eta_membership(QExp24(coeffs, prec, ell, r0), lam, r0, prec)
                want = eta_membership_oracle(coeffs, lam, r0, ell, prec)
                if want[0] == "not":
                    assert got == NotMember(want[1]), (ell, w, at)
                else:
                    assert got == MembershipCertificate(*want[1:]), (ell, w, at)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 13, 97, 3037000507)),  # the last stores Python integers
    st.sampled_from((1, 5, 7, 11, 13, 23)),
    st.one_of(st.sampled_from((14, 26, 38)), st.integers(0, 20).map(lambda j: 2 * j)),
    st.integers(1, 150),
    st.randoms(use_true_random=False),
)
def test_a_member_changed_past_its_pivots_is_refused_at_that_index(ell, r0, w, extra, rng):
    # members of eta^r0 * M_w from Miller rows times eta^r0, certified to
    # their full precision; a change at any strand index past the pivots,
    # not only below the Sturm depth, is the witness
    dim = dims(w)[0]
    assume(dim > 0)
    lam = w + (r0 - 1) // 2
    prec = membership_depth(lam, r0)[1] + extra
    rows = miller_basis(w, ell, spaces._basis_prec(w, prec)).elements
    g = QExp24.zero(prec, ell, 0)
    for row in rows:
        g = g + row.scale(rng.randrange(ell))
    f = (eta_series(prec, ell) ** r0 * g).truncate(prec)
    n = len(range(r0, prec, 24))
    assert certify(f, lam, r0, depth=prec).certificate.checked == n - dim
    i = rng.randrange(dim, n)
    bent = _perturbed(f, r0 + 24 * i, rng.randrange(1, ell))
    with pytest.raises(CertificationError, match=f"first bad index {r0 + 24 * i}$"):
        certify(bent, lam, r0, depth=prec)


def test_certifying_without_a_checked_coefficient_builds_no_basis(cold_caches):
    # w = 0, 0, 12 for eta, eta^7, eta^25; theta lifts of eta at ell = 5, 7, 11 have
    # w = 6, 8, 12 and compare nothing; at ell = 13, 37 they have w = 14, 38 and
    # check one coefficient
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


def test_the_checked_coefficient_is_a_constant_term(cold_caches):
    # theta of eta at ell = 13 lies at lam = 14, w = 14 = 2 (mod 12): one
    # coefficient past the pivots is checked.  The constant term pairs it
    # with the pivot, so a change at either is refused at index 25.
    lifted = theta_lift(eta_form(24 * 8, 13))
    assert lifted.certificate == MembershipCertificate((6,), 49, 1)
    series = dict(lifted.series.nonzero_items())
    for n in (1, 25):
        bent = QExp24.from_dict({**series, n: series.get(n, 0) + 1}, lifted.series.prec, 13, 1)
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
    for series in (_e4(prec, ell),) * 5 + (_e6(prec, ell),):
        f = (f * series).truncate(prec)
    cert = eta_membership(f, lam, r)
    assert isinstance(cert, MembershipCertificate) and cert.checked == 1
    bent = QExp24.from_dict({**dict(f.nonzero_items()), 53: f.coeff(53) + 1}, prec, ell, 5)
    assert eta_membership(bent, lam, r) == NotMember(53)
