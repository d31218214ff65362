"""Tests for the q^(1/24) expansion layer: arithmetic, operators, text format."""

import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etakit import qseries
from etakit.qseries import (
    PrecisionError,
    QExp24,
    eta_series,
    is_prime,
    kronecker,
    series_from_text,
    series_to_text,
    squarefree_part,
    theta_op,
    u_op,
    v_op,
)

from oracles import DenseSeries, dense_mul, eta_product_coeffs, kronecker_oracle


# === integer helpers ===


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_larger():
    assert is_prime(2147483647)  # Mersenne 2^31 - 1
    assert not is_prime(2147483649)
    assert is_prime(10**9 + 7)


def test_is_prime_agrees_with_sympy_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == list(sympy.primerange(0, 10**5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.integers(2**63, 2**64 - 1), st.integers(2**79, 2**80 - 1)))
def test_is_prime_agrees_with_sympy_on_64_and_80_bit(n):
    assert is_prime(n) == sympy.isprime(n)
    assert is_prime(sympy.nextprime(n))
    a = sympy.nextprime(n >> (n.bit_length() // 2))
    assert not is_prime(a * sympy.nextprime(a))  # a semiprime of about the same size


def test_is_prime_is_deterministic_up_to_its_bound():
    start = time.perf_counter()
    assert is_prime(2**61 - 1)  # took minutes by trial division
    assert time.perf_counter() - start < 0.5
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_prime(318665857834031151167461)  # ... to the first 12 prime bases
    with pytest.raises(ValueError, match="3317044064679887385961981"):
        is_prime(3317044064679887385961981)


def test_kronecker_bottom_values():
    # (a/1) = 1 always, (a/0) only survives a = +-1
    assert kronecker(5, 1) == 1
    assert kronecker(0, 0) == 0
    assert kronecker(1, 0) == 1
    assert kronecker(-1, 0) == 1
    assert kronecker(7, 0) == 0


def test_kronecker_agrees_with_oracle():
    rng = random.Random(411)
    for _ in range(400):
        a = rng.randint(-200, 200)
        n = rng.randint(-120, 120)
        assert kronecker(a, n) == kronecker_oracle(a, n), (a, n)


def test_kronecker_twelve_pattern():
    # (12/n) depends only on n mod 12 for n coprime to 12
    want = {1: 1, 5: -1, 7: -1, 11: 1}
    for n in range(1, 400):
        if n % 2 == 0 or n % 3 == 0:
            assert kronecker(12, n) == 0
        else:
            assert kronecker(12, n) == want[n % 12]


def test_squarefree_part():
    assert squarefree_part(1) == 1
    assert squarefree_part(4) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(360) == 10
    assert squarefree_part(49 * 11) == 11
    with pytest.raises(ValueError):
        squarefree_part(0)
    with pytest.raises(ValueError):
        squarefree_part(-4)


def test_squarefree_part_random():
    rng = random.Random(52)
    for _ in range(200):
        t = rng.randint(1, 500)
        s = squarefree_part(t)
        q = t // s
        root = int(round(q**0.5))
        assert t % s == 0
        assert root * root == q
        # s itself carries no square factor
        for d in range(2, 23):
            assert s % (d * d) != 0


# === construction and basic accessors ===


def test_constructor_validation():
    with pytest.raises(ValueError):
        QExp24([], prec=0, modulus=5, residue=0)
    with pytest.raises(ValueError):
        QExp24([1, 0], prec=2, modulus=4, residue=0)  # modulus must be prime >= 5
    with pytest.raises(ValueError):
        QExp24([1], prec=1, modulus=3, residue=0)
    with pytest.raises(ValueError):
        QExp24([1], prec=1, modulus=5, residue=24)
    with pytest.raises(ValueError):
        QExp24([1], prec=1, modulus=5, residue=-1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: QExp24([1], 1, None, 0),
        lambda: QExp24.zero(4, None, 0),
        lambda: QExp24.one(4, None),
        lambda: QExp24.from_dict({1: 1}, 4, None, 1),
        lambda: eta_series(48, None),
        lambda: series_from_text("# ring=Z prec=2 residue=1\n1 1\n", None),
    ],
    ids=["QExp24", "zero", "one", "from_dict", "eta_series", "series_from_text"],
)
def test_each_public_constructor_refuses_a_missing_ring(build):
    # F_ell is the one ring: there is no integer series to build
    with pytest.raises(ValueError, match="must be a prime >= 5, got None"):
        build()


def test_from_dict_and_coeff():
    f = QExp24.from_dict({1: 3, 25: -2}, prec=30, modulus=7, residue=1)
    assert f.coeff(1) == 3
    assert f.coeff(25) == 5
    assert f.coeff(7) == 0
    with pytest.raises(ValueError):
        f.coeff(-1)
    with pytest.raises(PrecisionError):
        f.coeff(30)
    with pytest.raises(PrecisionError):
        QExp24.from_dict({30: 1}, prec=30, modulus=7, residue=6)
    # the off-class refusal names the least index, whatever the terms' order
    with pytest.raises(ValueError, match="index 2 violates support class 1"):
        QExp24.from_dict({49: 1, 50: 1, 2: 1, 26: 1}, prec=60, modulus=5, residue=1)


def test_mod_coefficients_are_reduced():
    f = QExp24([10] + [0] * 23 + [-3] + [0] * 23 + [7], prec=49, modulus=5, residue=0)
    assert f.values.tolist() == [0, 2, 2]
    assert [f.coeff(n) for n in (0, 24, 48)] == [0, 2, 2]


def test_int64_strand_is_reduced_into_a_python_integer_ring():
    # widened before % ell: an int64 array cannot be reduced past 2^63
    got = qseries._reduce(np.array([0, 1, 2, -1, 2**62], dtype=np.int64), 2**64 + 13)
    assert got.dtype == object and got.tolist() == [0, 1, 2, 2**64 + 12, 2**62]


def test_int64_storage_stops_where_a_product_of_residues_would_overflow():
    # (ell - 1)^2 < 2^63 holds up to 3037000493 and fails at the next prime
    assert QExp24([1], prec=1, modulus=3037000493, residue=0).values.dtype == np.int64
    assert QExp24([1], prec=1, modulus=3037000507, residue=0).values.dtype == object


def test_valuation_support():
    f = QExp24.from_dict({5: 1, 29: 4}, prec=40, modulus=7, residue=5)
    assert f.valuation() == 5
    assert f.support() == [5, 29]
    assert f.nonzero_items() == [(5, 1), (29, 4)]
    z = QExp24.zero(8, 7, 0)
    assert z.is_zero()
    assert z.valuation() == 8  # zero series: valuation pinned at prec
    assert z.support() == []


def test_residue_claim_checked_against_support():
    with pytest.raises(ValueError):
        QExp24([0, 1], prec=2, modulus=5, residue=5)
    QExp24([0, 1], prec=2, modulus=5, residue=1)  # consistent claim is fine


def test_eq_ignores_residue():
    # the zero series of every class is one value; nonzero series on two
    # classes differ at the first index where either is nonzero
    a = QExp24([0, 1], prec=2, modulus=5, residue=1)
    c = QExp24.from_dict({1: 1}, prec=2, modulus=5, residue=1)
    assert a == c
    za = QExp24.zero(4, modulus=5, residue=1)
    zb = QExp24.zero(4, modulus=5, residue=5)
    assert za == zb
    assert QExp24.from_dict({1: 1}, 30, 5, 1) != QExp24.from_dict({5: 1}, 30, 5, 5)
    assert a != QExp24([0, 1], prec=2, modulus=7, residue=1)  # ring mismatch
    assert a != QExp24([0, 1, 0], prec=3, modulus=5, residue=1)  # prec is part of identity


def test_first_difference():
    a = QExp24.from_dict({0: 1, 24: 2, 48: 3, 72: 4}, prec=96, modulus=5, residue=0)
    b = QExp24.from_dict({0: 1, 24: 2, 72: 4}, prec=96, modulus=5, residue=0)
    assert a.first_difference(b, 96) == 48
    assert a.first_difference(b, 48) is None
    assert a.first_difference(b, 49) == 48
    with pytest.raises(PrecisionError):
        a.first_difference(b, 97)
    # on two classes: the first index where either is nonzero
    c = QExp24.from_dict({53: 1}, prec=96, modulus=5, residue=5)
    assert b.first_difference(c, 96) == 0 and c.first_difference(b, 96) == 0
    assert c.first_difference(QExp24.zero(96, 5, 0), 96) == 53
    assert c.first_difference(QExp24.zero(96, 5, 0), 53) is None


# === addition, subtraction, residue bookkeeping ===


def test_add_prec_is_min():
    a = QExp24.from_dict({0: 1, 24: 1, 48: 1, 72: 1}, prec=96, modulus=5, residue=0)
    b = QExp24.from_dict({0: 2}, prec=48, modulus=5, residue=0)
    s = a + b
    assert s.prec == 48
    assert s.values.tolist() == [3, 1]


def test_add_residue_rules():
    ell = 7
    a = QExp24.from_dict({1: 1}, prec=30, modulus=ell, residue=1)
    b = QExp24.from_dict({25: 2}, prec=30, modulus=ell, residue=1)
    assert (a + b).residue == 1
    # a zero side on another class gives way
    z = QExp24.zero(30, modulus=ell, residue=13)
    assert (a + z).residue == 1 and a + z == a
    assert (z - a).residue == 1 and z - a == -a
    # two nonzero series on two classes have no sum on one class
    c = QExp24.from_dict({5: 1}, prec=30, modulus=ell, residue=5)
    with pytest.raises(ValueError, match="series on classes 1 and 5 \\(mod 24\\) have no sum"):
        a + c
    with pytest.raises(ValueError, match="have no sum"):
        c - a
    # subtraction to zero keeps the shared claim
    d = a - a
    assert d.is_zero()
    assert d.residue == 1


def test_ring_mismatch_rejected():
    a = QExp24([1], prec=1, modulus=5, residue=0)
    b = QExp24([1], prec=1, modulus=7, residue=0)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * QExp24([1], prec=1, modulus=11, residue=0)


def test_scale_and_neg():
    f = QExp24.from_dict({1: 1, 25: 2}, prec=26, modulus=5, residue=1)
    g = f.scale(3)
    assert g.coeff(1) == 3 and g.coeff(25) == 1
    assert g.residue == 1
    h = -f
    assert h.coeff(1) == 4 and h.coeff(25) == 3
    assert 2 * f == f.scale(2)
    assert f * 2 == f.scale(2)


# === multiplication ===


def test_mul_precision_rule():
    # prec of product is min(P_f + v_g, P_g + v_f)
    f = QExp24.from_dict({2: 1}, prec=10, modulus=5, residue=2)  # v = 2
    g = QExp24.from_dict({3: 1}, prec=7, modulus=5, residue=3)  # v = 3
    h = f * g
    assert h.prec == min(10 + 3, 7 + 2)  # 9
    assert h.coeff(5) == 1 and h.residue == 5


def test_mul_zero_operand():
    f = QExp24.from_dict({1: 1}, prec=6, modulus=5, residue=1)
    z = QExp24.zero(4, 5, 0)
    p = f * z
    assert p.is_zero()
    # zero factor contributes valuation = its prec
    assert p.prec == min(6 + 4, 4 + 1)


def test_mul_residues_add_mod_24():
    ell = 5
    a = eta_series(60, modulus=ell)  # residue 1
    b = a * a
    assert b.residue == 2
    c = b * b
    assert c.residue == 4


def _same_as_dense(f: QExp24, ref: DenseSeries):
    assert (f.coeffs, f.prec, f.residue) == (tuple(ref.coeffs), ref.prec, ref.residue)


def _on_class(rng, residue, n, low, high):
    """A dense list of n coefficients, random in [low, high] on the class residue and 0 off it."""
    return [rng.randint(low, high) if i % 24 == residue else 0 for i in range(n)]


def test_mul_exact_vs_mod_agree():
    # integer inputs, reduced on the way in: the product must be the dense
    # reference's, whose valuation (and so precision) is that of the reduction
    rng = random.Random(7331)
    for ell in (5, 11):
        for _ in range(10):
            n, ra, rb = rng.randint(4, 240), rng.randrange(24), rng.randrange(24)
            fa, fb = _on_class(rng, ra, n, -9, 9), _on_class(rng, rb, n, -9, 9)
            fm = QExp24(fa, prec=n, modulus=ell, residue=ra) * QExp24(fb, prec=n, modulus=ell, residue=rb)
            _same_as_dense(fm, dense_mul(DenseSeries(fa, n, ell, ra), DenseSeries(fb, n, ell, rb)))


def test_mul_mod_compressed_path():
    # residue-tagged series sit on a single stride-24 lattice; the fast path
    # must agree with the dense product of the product-formula eta
    ell = 13
    f = eta_series(24 * 40, modulus=ell)
    g = f * f
    eta = DenseSeries(eta_product_coeffs(24 * 40), 24 * 40, ell, 1)
    _same_as_dense(g, dense_mul(eta, eta))
    assert g.residue == 2


def test_mul_mod_int64_guard():
    # modulus large enough that n*(ell-1)^2 overflows int64, forcing the
    # exact fallback; answers must still match the dense reference
    # (classes 13 and 17 put the product one strand entry in, at 30 - 24)
    ell = 2147483647
    n = 24 * 40
    rng = random.Random(99)
    fa, fb = _on_class(rng, 13, n, 1, ell - 1), _on_class(rng, 17, n, 1, ell - 1)
    assert len(range(13, n, 24)) * (ell - 1) ** 2 >= 2**63
    fm = QExp24(fa, prec=n, modulus=ell, residue=13) * QExp24(fb, prec=n, modulus=ell, residue=17)
    _same_as_dense(fm, dense_mul(DenseSeries(fa, n, ell, 13), DenseSeries(fb, n, ell, 17)))


def test_pow():
    f = eta_series(120, modulus=7)
    assert f**1 == f
    assert f**2 == f * f
    assert f**5 == f * f * f * f * f
    e0 = f**0
    assert e0.coeff(0) == 1 and len(e0.support()) == 1
    with pytest.raises(ValueError):
        f ** (-1)


def test_pow_residue_scales():
    f = eta_series(24 * 30, modulus=5)
    assert (f**5).residue == 5
    assert (f**25).residue == 1  # 25 = 1 mod 24


# === eta series against the product oracle ===


def test_eta_series_matches_product_expansion():
    prec = 24 * 60
    oracle = eta_product_coeffs(prec)
    for ell in (5, 13, 2**61 - 1):
        f = eta_series(prec, ell)
        assert list(f.coeffs) == [c % ell for c in oracle]
        assert f.residue == 1


def test_eta_series_character_form():
    # coefficients live at n^2 with value (12/n)
    ell = 2**31 - 1
    f = eta_series(24 * 50, ell)
    for n, c in f.nonzero_items():
        root = int(round(n**0.5))
        assert root * root == n
        assert c == kronecker(12, root) % ell


def test_eta_series_prec_floor():
    with pytest.raises(ValueError):
        eta_series(1, 5)
    f = eta_series(2, 5)
    assert list(f.coeffs) == [0, 1]


# === theta operator ===


def test_theta_op_formula():
    ell = 11
    f = eta_series(24 * 20, modulus=ell)
    g = theta_op(f)
    inv24 = pow(24, -1, ell)
    for n, c in f.nonzero_items():
        assert g.coeff(n) == (c * n * inv24) % ell
    assert g.residue == f.residue
    assert g.prec == f.prec


def test_theta_op_needs_modulus():
    # a series without a ring is refused before theta_op can see it
    with pytest.raises(ValueError, match="must be a prime >= 5, got None"):
        theta_op(eta_series(48, None))


def test_theta_op_kills_constant():
    f = QExp24.from_dict({0: 3, 24: 1}, prec=48, modulus=5, residue=0)
    g = theta_op(f)
    assert g.coeff(0) == 0
    assert g.coeff(24) == (24 * pow(24, -1, 5)) % 5 == 1


def test_theta_iterate_ell_is_identity_on_unit_class():
    # n^ell = n mod ell, so theta^ell = theta on each coefficient with ell
    # not dividing n; coefficients at ell | n die either way
    ell = 5
    f = eta_series(24 * 30, modulus=ell)
    g = f
    for _ in range(ell):
        g = theta_op(g)
    assert g == theta_op(f)


def _random_strands(ell, seed):
    # series on the classes 0, 7 and 23 with random residues mod ell
    rng = random.Random(seed)
    prec = 24 * 12
    return [QExp24.from_dict({r + 24 * m: rng.randrange(ell) for m in range(12)}, prec, ell, r) for r in (0, 7, 23)]


@pytest.mark.parametrize("ell", [5, 7, 11, 13])
def test_theta_power_equals_iterated_theta(ell):
    # theta^j multiplies by (n/24)^j in one pass; j single passes must agree
    for f in _random_strands(ell, ell):
        for j in (0, 1, 2, ell - 1, ell, 3 * ell + 2):
            g = f
            for _ in range(j):
                g = theta_op(g)
            got = theta_op(f, j)
            assert got == g and got.residue == f.residue, j


@pytest.mark.parametrize("ell", [97, 3037000493, 3037000507, 2**61 - 1])
def test_theta_power_on_large_rings(ell):
    # too many passes to iterate: each coefficient against Python pow
    inv24 = pow(24, -1, ell)
    for f in _random_strands(ell, 1):
        for j in (0, 1, 2, ell - 1, ell, 3 * ell + 2):
            g = theta_op(f, j)
            assert g.values.dtype == f.values.dtype
            want = [pow(n * inv24, j, ell) * f.coeff(n) % ell for n in range(f.prec)]
            assert list(g.coeffs) == want, j
    with pytest.raises(ValueError):
        theta_op(f, -1)


@pytest.mark.parametrize("ell", [5, 3037000493, 3037000507, 2**61 - 1])
def test_pow_mod_equals_python_pow(ell):
    # int64 storage up to 3037000493, Python integers past it
    rng = random.Random(ell)
    x = [0, 1, ell - 1] + [rng.randrange(ell) for _ in range(40)]
    residues = qseries._reduce(np.array(x, dtype=object), ell)
    assert residues.dtype == (np.int64 if ell <= 3037000493 else object)
    for e in (0, 1, 2, 3, ell - 2, ell - 1, ell, 2**64 + 5, rng.randrange(10**30)):
        got = qseries._pow_mod(residues, e, ell)
        assert got.dtype == residues.dtype
        assert got.tolist() == [pow(v, e, ell) for v in x], e


@pytest.mark.parametrize("ell", [5, 7, 13, 3037000493, 3037000507, 2**61 - 1])
def test_pow_mod_keeps_zero_at_multiples_of_ell_minus_one(ell):
    # the exponent is reduced to (e - 1) mod (ell - 1) + 1, never to 0 from
    # e >= 1: 0^(ell - 1) is 0, and a unit to a multiple of ell - 1 is 1
    residues = qseries._reduce(np.array([0, 1, 2, ell - 1], dtype=object), ell)
    for e in (ell - 1, 2 * (ell - 1), 3 * (ell - 1)):
        assert qseries._pow_mod(residues, e, ell).tolist() == [0, 1, 1, 1], e
    assert qseries._pow_mod(residues, 0, ell).tolist() == [1, 1, 1, 1]
    assert qseries._pow_mod(residues, ell, ell).tolist() == [0, 1, 2, ell - 1]


def test_legendre_table_matches_kronecker():
    for p in (5, 43, 10007):
        n = np.arange(3 * p + 2)
        assert qseries._legendre(n, p).tolist() == [kronecker(int(j), p) for j in n], p
    # a large p with small n: the table stops at max n + 1
    p = 2**31 - 1
    n = np.array([0, 1, 2, 3, 5, 7, 10, 99, 1000, 7, 0])
    assert qseries._legendre(n, p).tolist() == [kronecker(int(j), p) for j in n]
    assert qseries._legendre(np.array([], dtype=np.int64), p).tolist() == []


# === U, V ===


def test_u_op_extracts_arithmetic_progression():
    f = QExp24.from_dict({1 + 24 * j: j + 1 for j in range(30)}, prec=24 * 30, modulus=7, residue=1)
    g = u_op(f, 5)
    assert g.prec == 144 and g.residue == 5
    for n in range(144):
        assert g.coeff(n) == f.coeff(5 * n)


def test_u_op_residue_transform():
    ell = 5
    f = eta_series(24 * ell * 4, modulus=ell)
    g = u_op(f, ell)
    # r -> r * m^{-1} mod 24; 5^{-1} = 5 mod 24
    assert g.residue == 5
    # gcd(m, 24) > 1: the image leaves one class
    for m in (2, 3, 4, 6, 24):
        with pytest.raises(ValueError, match=f"U_m needs m >= 1 prime to 24, got {m}"):
            u_op(f, m)


def test_v_op_inflates():
    f = QExp24.from_dict({1: 1, 25: 2, 49: 3}, prec=50, modulus=5, residue=1)
    g = v_op(f, 5)
    assert g.prec == 250
    assert g.coeff(5) == 1 and g.coeff(125) == 2 and g.coeff(245) == 3
    assert g.coeff(3) == 0 and g.residue == 5
    # the residue tag is rescaled: r -> m r mod 24
    h = v_op(QExp24.from_dict({2: 1}, prec=3, modulus=5, residue=2), 5)
    assert h.residue == 10


def test_u_after_v_is_identity():
    rng = random.Random(88)
    f = QExp24(_on_class(rng, 7, 24 * 40, 0, 6), prec=24 * 40, modulus=7, residue=7)
    for m in (5, 7, 25):
        assert u_op(v_op(f, m), m) == f


def test_v_op_power_congruence():
    # frobenius: (sum a_n q^{n/24})^ell = sum a_n q^{ell n/24} mod ell
    ell = 5
    f = eta_series(24 * ell + 1, modulus=ell)
    lhs = f**ell
    rhs = v_op(f, ell).truncate(lhs.prec)
    assert lhs == rhs


def _square_and_multiply(f: QExp24, e: int) -> QExp24:
    """f^e from products alone: repeated squaring without the Frobenius step."""
    out = None
    while e:
        if e & 1:
            out = f if out is None else out * f
        e >>= 1
        if e:
            f = f * f
    return out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_power_past_ell_equals_repeated_squaring(data):
    # past e = ell, a^(ell h + d) is built as a^d a(x^ell)^h
    ell = data.draw(st.sampled_from((5, 7, 11, 13)))
    residue = data.draw(st.integers(0, 23))
    prec = data.draw(st.integers(1, 240))
    lattice = range(residue, prec, 24)
    values = data.draw(st.lists(st.integers(0, ell - 1), min_size=len(lattice), max_size=len(lattice)))
    f = QExp24.from_dict(dict(zip(lattice, values)), prec, ell, residue)
    e = data.draw(st.integers(ell, 4 * ell + 3))
    got, want = f**e, _square_and_multiply(f, e)
    assert got == want and got.residue == want.residue
    assert got.values.tolist() == want.values.tolist()


# === truncate / reduce / residue edits ===


def test_truncate():
    f = QExp24.from_dict({24 * j: j for j in range(10)}, prec=240, modulus=11, residue=0)
    g = f.truncate(96)
    assert g.prec == 96 and g.values.tolist() == [0, 1, 2, 3]
    with pytest.raises(PrecisionError):
        f.truncate(241)
    with pytest.raises(ValueError):
        f.truncate(0)


def test_with_residue():
    # a series is given its class where it is built, and no method re-tags it
    assert not hasattr(QExp24, "with_residue")
    h = QExp24.from_dict({1: 3}, prec=30, modulus=5, residue=1)
    assert h.residue == 1
    with pytest.raises(ValueError):
        QExp24.from_dict({1: 3}, prec=30, modulus=5, residue=30)
    with pytest.raises(ValueError):
        QExp24.from_dict({1: 3}, prec=30, modulus=5, residue=5)  # inconsistent with support


# === text round trip ===


def test_series_text_roundtrip():
    f = QExp24.from_dict({1: 2, 49: 3}, prec=60, modulus=7, residue=1)
    text = series_to_text(f)
    lines = text.strip().splitlines()
    assert lines[0] == "# ring=Fp:7 prec=60 residue=1"
    assert lines[1:] == ["1 2", "49 3"]
    g = series_from_text(text, 7)
    assert g == f and g.residue == 1
    with pytest.raises(ValueError, match="series ring Fp:7 disagrees with ell 5"):
        series_from_text(text, 5)


def test_series_text_integer_ring_and_extra():
    f = QExp24.from_dict({0: -5}, prec=3, modulus=7, residue=0)
    text = series_to_text(f, extra={"weight": 12})
    assert "ring=Fp:7" in text and "residue=0" in text and "weight=12" in text
    assert series_from_text(text, 7) == f
    # a file over Z is read reduced mod ell
    assert series_from_text("# ring=Z prec=3 residue=0\n0 -5\n", 7) == f


def test_series_text_rejects_garbage():
    with pytest.raises(ValueError):
        series_from_text("no header\n1 1\n", 7)
    with pytest.raises(ValueError, match="unknown ring tag"):
        series_from_text("# ring=F7 prec=2 residue=1\n1 1\n", 7)
    with pytest.raises(PrecisionError):
        series_from_text("# ring=Fp:7 prec=2 residue=5\n5 1\n", 7)  # index >= prec
    with pytest.raises(ValueError, match="index 1 "):
        series_from_text("# ring=Fp:7 prec=9 residue=1\n1 1\n1 3\n", 7)
    # a series lives on one class: a file without one is refused in one line
    with pytest.raises(ValueError, match="residue=none: a series lives on one class") as info:
        series_from_text("# ring=Fp:7 prec=9 residue=none\n1 1\n", 7)
    assert "\n" not in str(info.value)
    with pytest.raises(ValueError, match="violates support class 1"):
        series_from_text("# ring=Fp:7 prec=9 residue=1\n1 1\n2 3\n", 7)


def test_series_text_precision_budget(monkeypatch):
    # the budget is checked before any coefficient is stored: a prec one past
    # a small budget is refused without reaching from_dict
    monkeypatch.setattr(qseries, "SERIES_MAX_PREC", 240)
    assert series_from_text("# ring=Fp:5 prec=240 residue=1\n1 1\n", 5).prec == 240
    monkeypatch.setattr(QExp24, "from_dict", None)
    for ring in ("Fp:5", "Z"):
        with pytest.raises(ValueError, match="series prec 241 exceeds the budget SERIES_MAX_PREC = 240"):
            series_from_text(f"# ring={ring} prec=241 residue=1\n1 1\n", 5)


def test_series_text_random_roundtrip():
    rng = random.Random(2601)
    for _ in range(25):
        prec, r = rng.randint(2, 24 * 12), rng.randrange(24)
        terms = {}
        for _ in range(rng.randint(0, 12) if r < prec else 0):
            terms[rng.randrange(r, prec, 24)] = rng.randint(-50, 50)
        mod = rng.choice([None, 5, 11])
        if mod is None:  # an integer file, read mod 13
            lines = [f"# ring=Z prec={prec} residue={r}"] + [f"{n} {c}" for n, c in terms.items()]
            assert series_from_text("\n".join(lines), 13) == QExp24.from_dict(terms, prec, 13, r)
        else:
            f = QExp24.from_dict(terms, prec=prec, modulus=mod, residue=r)
            assert series_from_text(series_to_text(f), mod) == f
