"""Tests for the q^(1/24) expansion layer: arithmetic, operators, text format."""

import random
import time

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from etakit.qseries import (
    PrecisionError,
    QExp24,
    eta_series,
    is_prime,
    kronecker,
    series_from_text,
    series_to_text,
    squarefree_part,
    support_square_classes,
    theta_op,
    twist,
    u_op,
    v_op,
)

from oracles import eta_product_coeffs, kronecker_oracle


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
        QExp24([], prec=0)
    with pytest.raises(ValueError):
        QExp24([1, 2], prec=2, modulus=4)  # modulus must be prime >= 5
    with pytest.raises(ValueError):
        QExp24([1], prec=1, modulus=3)
    with pytest.raises(ValueError):
        QExp24([1], prec=1, residue=24)
    with pytest.raises(ValueError):
        QExp24([1], prec=1, residue=-1)


def test_from_dict_and_coeff():
    f = QExp24.from_dict({1: 3, 25: -2}, prec=30)
    assert f.coeff(1) == 3
    assert f.coeff(25) == -2
    assert f.coeff(7) == 0
    assert f[25] == -2
    with pytest.raises(ValueError):
        f.coeff(-1)
    with pytest.raises(PrecisionError):
        f.coeff(30)
    with pytest.raises(PrecisionError):
        QExp24.from_dict({30: 1}, prec=30)


def test_mod_coefficients_are_reduced():
    f = QExp24([10, -3, 7], prec=3, modulus=5)
    assert list(f.coeffs) == [0, 2, 2]


def test_int64_strand_is_reduced_into_a_python_integer_ring():
    f = QExp24(values=np.arange(3), prec=3, modulus=2**64 + 13)
    assert f.values.dtype == object and list(f.coeffs) == [0, 1, 2]


def test_int64_storage_stops_where_a_product_of_residues_would_overflow():
    # (ell - 1)^2 < 2^63 holds up to 3037000493 and fails at the next prime
    assert QExp24([1], prec=1, modulus=3037000493).values.dtype == np.int64
    assert QExp24([1], prec=1, modulus=3037000507).values.dtype == object


def test_valuation_support():
    f = QExp24.from_dict({5: 1, 12: 4}, prec=20)
    assert f.valuation() == 5
    assert f.support() == [5, 12]
    assert f.nonzero_items() == [(5, 1), (12, 4)]
    z = QExp24.zero(8)
    assert z.is_zero()
    assert z.valuation() == 8  # zero series: valuation pinned at prec
    assert z.support() == []


def test_residue_claim_checked_against_support():
    with pytest.raises(ValueError):
        QExp24([0, 1], prec=2, modulus=5, residue=5)
    QExp24([0, 1], prec=2, modulus=5, residue=1)  # consistent claim is fine


def test_eq_ignores_residue():
    a = QExp24([0, 1], prec=2, modulus=5, residue=1)
    c = QExp24([0, 1], prec=2, modulus=5)
    assert a == c
    za = QExp24.zero(4, modulus=5, residue=1)
    zb = QExp24.zero(4, modulus=5, residue=5)
    assert za == zb
    assert a != QExp24([0, 1], prec=2, modulus=7)
    assert a != QExp24([0, 1], prec=2)  # ring mismatch
    assert a != QExp24([0, 1, 0], prec=3, modulus=5)  # prec is part of identity


def test_first_difference():
    a = QExp24([1, 2, 3, 4], prec=4)
    b = QExp24([1, 2, 0, 4], prec=4)
    assert a.first_difference(b, 4) == 2
    assert a.first_difference(b, 2) is None
    assert a.agrees_with(b, 2)
    assert not a.agrees_with(b, 3)
    with pytest.raises(PrecisionError):
        a.first_difference(b, 5)


# === addition, subtraction, residue bookkeeping ===


def test_add_prec_is_min():
    a = QExp24([1, 1, 1, 1], prec=4)
    b = QExp24([2, 0], prec=2)
    s = a + b
    assert s.prec == 2
    assert list(s.coeffs) == [3, 1]


def test_add_residue_rules():
    ell = 7
    a = QExp24.from_dict({1: 1}, prec=30, modulus=ell, residue=1)
    b = QExp24.from_dict({25: 2}, prec=30, modulus=ell, residue=1)
    assert (a + b).residue == 1
    # zero side gives way
    z = QExp24.zero(30, modulus=ell)
    assert (a + z).residue == 1
    assert (z + a).residue == 1
    # conflicting claims drop the tag
    c = QExp24.from_dict({5: 1}, prec=30, modulus=ell, residue=5)
    assert (a + c).residue is None
    # subtraction to zero keeps the shared claim
    d = a - a
    assert d.is_zero()
    assert d.residue == 1


def test_ring_mismatch_rejected():
    a = QExp24([1], prec=1, modulus=5)
    b = QExp24([1], prec=1, modulus=7)
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a + QExp24([1], prec=1)


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
    f = QExp24.from_dict({2: 1}, prec=10)  # v = 2
    g = QExp24.from_dict({3: 1}, prec=7)  # v = 3
    h = f * g
    assert h.prec == min(10 + 3, 7 + 2)  # 9
    assert h.coeff(5) == 1


def test_mul_zero_operand():
    f = QExp24.from_dict({1: 1}, prec=6)
    z = QExp24.zero(4)
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


def test_mul_exact_vs_mod_agree():
    rng = random.Random(7331)
    for ell in (5, 11):
        for _ in range(10):
            n = rng.randint(4, 40)
            fa = [rng.randint(-9, 9) for _ in range(n)]
            fb = [rng.randint(-9, 9) for _ in range(n)]
            fz = QExp24(fa, prec=n) * QExp24(fb, prec=n)
            fm = QExp24(fa, prec=n, modulus=ell) * QExp24(fb, prec=n, modulus=ell)
            # a leading coefficient divisible by ell raises the mod-ring
            # valuation, so the mod product can carry more precision; compare
            # on the stretch both paths certify
            depth = min(fz.prec, fm.prec)
            assert fz.reduce_mod(ell).agrees_with(fm, depth)


def test_mul_mod_compressed_path():
    # residue-tagged series sit on a single stride-24 lattice; the fast path
    # must agree with plain reduction of the exact product
    ell = 13
    f = eta_series(24 * 40, modulus=ell)
    g = f * f
    fz = eta_series(24 * 40)
    assert (fz * fz).reduce_mod(ell) == g
    assert g.residue == 2


def test_mul_mod_int64_guard():
    # modulus large enough that n*(ell-1)^2 overflows int64, forcing the
    # exact fallback; answers must still match the integer computation
    ell = 2147483647
    n = 800
    rng = random.Random(99)
    fa = [rng.randint(1, ell - 1) for _ in range(n)]
    fb = [rng.randint(1, ell - 1) for _ in range(n)]
    assert n * (ell - 1) ** 2 >= 2**62
    fm = QExp24(fa, prec=n, modulus=ell) * QExp24(fb, prec=n, modulus=ell)
    fz = QExp24(fa, prec=n) * QExp24(fb, prec=n)
    assert fz.reduce_mod(ell) == fm


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
    f = eta_series(prec)
    oracle = eta_product_coeffs(prec)
    assert list(f.coeffs) == oracle
    assert f.residue == 1


def test_eta_series_character_form():
    # coefficients live at n^2 with value (12/n)
    f = eta_series(24 * 50)
    for n, c in f.nonzero_items():
        root = int(round(n**0.5))
        assert root * root == n
        assert c == kronecker(12, root)


def test_eta_series_prec_floor():
    with pytest.raises(ValueError):
        eta_series(1)
    f = eta_series(2)
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
    with pytest.raises(ValueError):
        theta_op(eta_series(48))


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


# === U, V, twist ===


def test_u_op_extracts_arithmetic_progression():
    f = QExp24(list(range(36)), prec=36, modulus=7)
    g = u_op(f, 3)
    assert g.prec == 12
    for n in range(12):
        assert g.coeff(n) == (3 * n) % 7


def test_u_op_residue_transform():
    ell = 5
    f = eta_series(24 * ell * 4, modulus=ell)
    g = u_op(f, ell)
    # r -> r * m^{-1} mod 24; 5^{-1} = 5 mod 24
    assert g.residue == 5
    h = u_op(f, 2)
    assert h.residue is None  # gcd(2, 24) > 1 drops the claim


def test_v_op_inflates():
    f = QExp24([1, 2, 3], prec=3, modulus=5)
    g = v_op(f, 5)
    assert g.prec == 15
    assert g.coeff(0) == 1 and g.coeff(5) == 2 and g.coeff(10) == 3
    assert g.coeff(3) == 0
    # the residue tag is rescaled: r -> m r mod 24
    h = v_op(QExp24.from_dict({2: 1}, prec=3, modulus=5, residue=2), 5)
    assert h.residue == 10


def test_u_after_v_is_identity():
    rng = random.Random(88)
    coeffs = [rng.randint(0, 6) for _ in range(40)]
    f = QExp24(coeffs, prec=40, modulus=7)
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
    residue = data.draw(st.one_of(st.none(), st.integers(0, 23)))  # tagged or untagged
    prec = data.draw(st.integers(1, 60))
    n = len(range(0 if residue is None else residue, prec, 1 if residue is None else 24))
    values = data.draw(st.lists(st.integers(0, ell - 1), min_size=n, max_size=n))
    f = QExp24(values=values, prec=prec, modulus=ell, residue=residue)
    e = data.draw(st.integers(ell, 4 * ell + 3))
    got, want = f**e, _square_and_multiply(f, e)
    assert got == want and got.residue == want.residue
    assert got.values.tolist() == want.values.tolist()


def test_twist_quadratic():
    ell = 7
    p = 5
    f = eta_series(24 * 40, modulus=ell)
    g = twist(f, p)
    for n in range(g.prec):
        assert g.coeff(n) == (kronecker(n, p) * f.coeff(n)) % ell
    assert g.residue == f.residue


def test_twist_trivial_kills_p_part():
    f = QExp24(list(range(1, 31)), prec=30, modulus=11)
    g = twist(f, 5, kind="trivial")
    for n in range(30):
        if n % 5 == 0:
            assert g.coeff(n) == 0
        else:
            assert g.coeff(n) == f.coeff(n)


def test_twist_projector_decomposition():
    # trivial twist = f - (part supported on p | n); quadratic twist squared
    # fixes exactly the coprime part
    ell = 13
    p = 7
    f = eta_series(24 * 30, modulus=ell)
    t2 = twist(twist(f, p), p)
    assert t2 == twist(f, p, kind="trivial")
    with pytest.raises(ValueError):
        twist(f, 4)
    with pytest.raises(ValueError):
        twist(f, 3)
    with pytest.raises(ValueError):
        twist(f, 7, kind="cubic")


# === square class bookkeeping ===


def test_support_square_classes():
    f = QExp24.from_dict({1: 1, 4: 2, 5: 1, 20: 3, 9: 7}, prec=24, modulus=23)
    classes = support_square_classes(f)
    assert set(classes) == {1, 5}
    assert classes[1] == [1, 4, 9]
    assert classes[5] == [5, 20]
    assert support_square_classes(QExp24.zero(5)) == {}


def test_support_square_classes_eta_power():
    ell = 5
    f = eta_series(24 * 40, modulus=ell)
    assert set(support_square_classes(f)) == {1}
    g = f**ell  # support at ell * squares
    assert set(support_square_classes(g)) == {ell}


# === truncate / reduce / residue edits ===


def test_truncate():
    f = QExp24(list(range(10)), prec=10)
    g = f.truncate(4)
    assert g.prec == 4 and list(g.coeffs) == [0, 1, 2, 3]
    with pytest.raises(PrecisionError):
        f.truncate(11)
    with pytest.raises(ValueError):
        f.truncate(0)


def test_reduce_mod_and_with_residue():
    f = QExp24([-1, 26], prec=2)
    g = f.reduce_mod(5)
    assert g.modulus == 5 and list(g.coeffs) == [4, 1]
    with pytest.raises(ValueError):
        g.reduce_mod(5)  # already modular
    e = QExp24.from_dict({1: 3}, prec=30, modulus=5)
    h = e.with_residue(1)
    assert h.residue == 1
    with pytest.raises(ValueError):
        e.with_residue(30)
    with pytest.raises(ValueError):
        e.with_residue(5)  # inconsistent with support


# === text round trip ===


def test_series_text_roundtrip():
    f = QExp24.from_dict({1: 2, 49: 3}, prec=60, modulus=7, residue=1)
    text = series_to_text(f)
    lines = text.strip().splitlines()
    assert lines[0] == "# ring=Fp:7 prec=60 residue=1"
    assert lines[1:] == ["1 2", "49 3"]
    g = series_from_text(text)
    assert g == f and g.residue == 1


def test_series_text_integer_ring_and_extra():
    f = QExp24.from_dict({0: -5}, prec=3)
    text = series_to_text(f, extra={"weight": 12})
    assert "ring=Z" in text and "residue=none" in text and "weight=12" in text
    g = series_from_text(text)
    assert g == f


def test_series_text_rejects_garbage():
    with pytest.raises(ValueError):
        series_from_text("no header\n1 1\n")
    with pytest.raises(ValueError):
        series_from_text("# ring=F7 prec=2 residue=none\n5 1\n")  # index >= prec
    with pytest.raises(ValueError, match="index 1 "):
        series_from_text("# ring=Fp:7 prec=9 residue=none\n1 1\n1 3\n")


def test_series_text_random_roundtrip():
    rng = random.Random(2601)
    for _ in range(25):
        prec = rng.randint(2, 120)
        terms = {}
        for _ in range(rng.randint(0, 12)):
            terms[rng.randrange(prec)] = rng.randint(-50, 50)
        mod = rng.choice([None, 5, 11])
        if mod is None:
            f = QExp24.from_dict(terms, prec=prec)
        else:
            f = QExp24.from_dict(terms, prec=prec, modulus=mod)
        assert series_from_text(series_to_text(f)) == f
