"""Strand storage of QExp24 against the dense reference in oracles.py.

Every operation on the strands must give the coefficients, precision and
residue class that the dense definitions give, or refuse where they
refuse: a sum of two nonzero series on different classes, and U_m with
gcd(m, 24) > 1, whose images leave one class mod 24.  The rings include
ell = 2^31 - 1, where a convolution of three or more terms overflows
int64 and takes the exact path, and the two primes on either side of the
storage rule: 3037000493, the largest prime ell whose product of two
residues fits in int64, which stores int64, and 3037000507, which stores
Python integers like 4294967311 and 2^64 + 13.
"""

import ast
import math
import operator
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etakit import halfint, qseries
from etakit.halfint import hecke_tp2
from etakit.qseries import (
    PrecisionError,
    QExp24,
    _inverse,
    _square_strand,
    _square_terms,
    theta_op,
    u_op,
    v_op,
)

from oracles import (
    DenseSeries,
    dense_add,
    dense_hecke_tp2,
    dense_mul,
    dense_scale,
    dense_theta,
    dense_u,
    dense_v,
    kronecker_oracle,
)

RINGS = (5, 7, 13, 2**31 - 1, 3037000493, 3037000507, 4294967311, 2**64 + 13)
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

coefficient = st.one_of(st.just(0), st.integers(-(2**70), 2**70))


@st.composite
def free_lists(draw, max_prec=150):
    """(coeffs, prec) with support anywhere."""
    prec = draw(st.integers(1, max_prec))
    return draw(st.lists(coefficient, max_size=prec)), prec


@st.composite
def dense_lists(draw, residue, max_prec=150):
    """(coeffs, prec) with support in the class residue."""
    prec = draw(st.integers(1, max_prec))
    coeffs = [0] * prec
    for m, c in enumerate(draw(st.lists(coefficient, max_size=len(range(residue, prec, 24))))):
        coeffs[residue + 24 * m] = c
    return coeffs, prec


@st.composite
def pairs(draw, count=2, max_prec=150):
    """count (QExp24, DenseSeries) pairs over one ring, on one class or on any of the 24."""
    modulus = draw(st.sampled_from(RINGS))
    shared = draw(st.integers(0, 23))
    out = []
    for _ in range(count):
        residue = draw(st.one_of(st.just(shared), st.integers(0, 23)))
        coeffs, prec = draw(dense_lists(residue, max_prec))
        out.append((QExp24(coeffs, prec, modulus, residue), DenseSeries(coeffs, prec, modulus, residue)))
    return out


def storage_dtype(modulus):
    """int64 exactly when a product of two residues fits, else Python integers."""
    return np.dtype(np.int64 if (modulus - 1) ** 2 < 2**63 else object)


def same(f, ref):
    assert f.coeffs == tuple(ref.coeffs)
    assert (f.prec, f.modulus, f.residue) == (ref.prec, ref.modulus, ref.residue)
    assert len(f.values) == len(range(f.residue, f.prec, 24))
    # what the trusted constructor takes on faith: storage dtype, read-only, reduced
    assert f.values.dtype == storage_dtype(f.modulus)
    assert not f.values.flags.writeable
    assert all(0 <= c < f.modulus for c in f.values.tolist())


def same_or_raises(got, want) -> bool:
    """got() gives what the oracle's want() gives, or both raise one ValueError message."""
    try:
        ref = want()
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            got()
        assert str(info.value) == str(exc)
        return False
    same(got(), ref)
    return True


@SETTINGS
@given(st.sampled_from(RINGS), st.integers(0, 23), st.data())
def test_construction_raises_at_the_same_index(modulus, residue, data):
    # lists on the claimed class, on a class drawn apart, or on every index
    coeffs, prec = data.draw(st.one_of(dense_lists(residue), st.integers(0, 23).flatmap(dense_lists), free_lists()))
    if not same_or_raises(
        lambda: QExp24(coeffs, prec, modulus, residue), lambda: DenseSeries(coeffs, prec, modulus, residue)
    ):
        return
    f, ref = QExp24(coeffs, prec, modulus, residue), DenseSeries(coeffs, prec, modulus, residue)
    assert f.valuation() == ref.valuation()
    assert f.is_zero() == ref.is_zero()
    items = [(n, c) for n, c in enumerate(ref.coeffs) if c]
    assert f.nonzero_items() == items
    assert f.support() == [n for n, _ in items]
    for n in range(prec):
        assert f.coeff(n) == ref.coeffs[n]
    for r in range(24):
        off = next((n for n, c in items if n % 24 != r), None)
        assert f.first_off_class(r) == off


@SETTINGS
@given(pairs(), st.integers(-(2**70), 2**70), st.integers(0, 3))
def test_ring_operations_and_precision_rule(fs, c, e):
    (f, rf), (g, rg) = fs
    same_or_raises(lambda: f + g, lambda: dense_add(rf, rg))
    same_or_raises(lambda: f - g, lambda: dense_add(rf, rg, -1))
    same(f * g, dense_mul(rf, rg))
    same(f.scale(c), dense_scale(rf, c))
    same(-f, dense_scale(rf, -1))
    power = DenseSeries([1], f.prec, f.modulus, 0) if e == 0 else rf
    for _ in range(e - 1):
        power = dense_mul(power, rf)
    same(f**e, power)


@SETTINGS
@given(pairs(count=1), st.integers(1, 12))
def test_power_equals_repeated_products(fs, e):
    # the dense check above stops at e = 3; repeated squaring past it
    # must keep the precision, residue and shift that e - 1 products give
    [(f, _)] = fs
    product = f
    for _ in range(e - 1):
        product = product * f
    power = f**e
    assert power == product and power.residue == product.residue


@SETTINGS
@given(pairs(), st.sampled_from(("f", "g", None)))
def test_a_mixed_class_sum_raises_unless_one_side_is_zero(fs, zeroed):
    (f, rf), (g, rg) = fs
    if zeroed == "f":
        f, rf = f.scale(0), dense_scale(rf, 0)
    if zeroed == "g":
        g, rg = g.scale(0), dense_scale(rg, 0)
    for sign, op in ((1, operator.add), (-1, operator.sub)):
        summed = same_or_raises(lambda: op(f, g), lambda: dense_add(rf, rg, sign))
        assert summed == (f.residue == g.residue or f.is_zero() or g.is_zero())


@SETTINGS
@given(pairs(count=1), st.integers(1, 72).filter(lambda m: math.gcd(m, 24) > 1))
def test_u_op_off_the_units_mod_24_raises(fs, m):
    [(f, rf)] = fs
    assert not same_or_raises(lambda: u_op(f, m), lambda: dense_u(rf, m))
    same(v_op(f, m), dense_v(rf, m))  # V_m keeps one class for every m


@SETTINGS
@given(pairs(count=1), st.integers(1, 30), st.integers(0, 24))
def test_u_v_truncate_and_residue_tags(fs, m, cut):
    [(f, rf)] = fs
    if same_or_raises(lambda: u_op(f, m), lambda: dense_u(rf, m)):
        assert u_op(v_op(f, m), m) == f
    same(v_op(f, m), dense_v(rf, m))
    prec = max(1, f.prec - cut)
    same(f.truncate(prec), DenseSeries(rf.coeffs[:prec], prec, rf.modulus, rf.residue))
    # the dense tuple scattered from the strand builds the series again on
    # its own class, and on another only when it is zero
    for r in (f.residue, 0, 1, 13):
        same_or_raises(
            lambda: QExp24(f.coeffs, f.prec, f.modulus, r), lambda: DenseSeries(rf.coeffs, rf.prec, rf.modulus, r)
        )


@SETTINGS
@given(st.sampled_from(RINGS), st.integers(0, 23), st.integers(1, 150), st.data())
def test_from_dict_gives_what_the_dense_list_gives(modulus, residue, prec, data):
    # each term goes straight into its strand slot with the constructor's
    # checks: a PrecisionError past prec, the off-class ValueError at the
    # least such index, and a term = 0 (mod ell) accepted anywhere
    index = st.one_of(st.integers(0, prec - 1), st.integers(0, (prec - 1) // 24).map(lambda k: residue + 24 * k))
    value = st.one_of(coefficient, st.integers(-3, 3).map(lambda k: k * modulus))
    terms = data.draw(st.dictionaries(index.filter(lambda n: n < prec), value, max_size=12))
    past = data.draw(st.integers(prec, prec + 30))
    with pytest.raises(PrecisionError, match=rf"index {past} outside \[0, {prec}\)"):
        QExp24.from_dict({**terms, past: 1}, prec, modulus, residue)
    coeffs = [0] * prec
    for n, c in terms.items():
        coeffs[n] = c
    same_or_raises(
        lambda: QExp24.from_dict(terms, prec, modulus, residue), lambda: DenseSeries(coeffs, prec, modulus, residue)
    )


@SETTINGS
@given(pairs(count=1, max_prec=400), st.sampled_from((5, 7, 11)), st.integers(0, 6))
def test_theta_twist_and_hecke(fs, p, lam_int):
    [(f, rf)] = fs
    same(theta_op(f), dense_theta(rf))
    if p != f.modulus:
        same(hecke_tp2(f, p, lam_int), dense_hecke_tp2(rf, p, lam_int))


def _dense_prefix(coeffs, prec, modulus, residue):
    """The oracle's series of coeffs[:prec], reduced and on its class already, without a scan of each index."""
    f = DenseSeries.__new__(DenseSeries)
    f.coeffs, f.prec, f.modulus, f.residue = coeffs[:prec], prec, modulus, residue
    return f


# T(p^2) output strand lengths in the order asked, with the sign strand each
# leaves cached: built cold at 5, a prefix at 2, grown to max(7, 2 * 5)
HECKE_LENGTHS = ((5, 5), (2, 5), (7, 10))


@pytest.mark.parametrize("modulus", RINGS + (2**61 - 1,))
def test_hecke_matches_the_dense_oracle_at_worst_case_operands(cold_caches, modulus):
    # every strand entry ell - 1 puts each output entry, a product of residues
    # plus a residue, at its largest; every class prime to 6, the sign cache
    # cold, and each (p, r0) asked long, short, then longer
    top = 24 * 43 * 43 * max(length for length, _ in HECKE_LENGTHS)
    for r0 in (1, 5, 7, 11, 13, 17, 19, 23):
        dense = [0] * top
        dense[r0::24] = [modulus - 1] * len(range(r0, top, 24))
        f = QExp24.from_dict(dict.fromkeys(range(r0, top, 24), modulus - 1), top, modulus, r0)
        for p in (5, 7, 11, 13, 43):
            if p == modulus:
                continue
            for length, cached in HECKE_LENGTHS:
                prec, lam_int = 24 * p * p * length, (r0 + length) % 4
                got = hecke_tp2(f.truncate(prec), p, lam_int)
                same(got, dense_hecke_tp2(_dense_prefix(dense, prec, modulus, r0), p, lam_int))
                assert got.values.size == length and qseries._TABLES[halfint._sign_table, p, r0][0] == cached


@pytest.mark.parametrize("modulus", RINGS)
def test_fused_kernel_is_hecke_minus_s_f_at_worst_case_operands(modulus):
    # hecke_tp2 and the eigenvalue check share halfint._tp2, the strand of
    # T(p^2) f - s f; with every entry ell - 1 and s = 1, the entries where
    # p^2 | n sum a(p^2 n), (ell - 1) a(n) and c2 a(n / p^2): with c2 a
    # residue too that passes 2^63 at ell = 3037000493
    for r0 in (1, 5, 7, 11, 13, 17, 19, 23):
        for p in (5, 7, 13):
            if p == modulus:
                continue
            length = (p * p - 1) * r0 // 24 + 2  # through entry k0, where n = r0 p^2, and one past it
            prec = 24 * p * p * length
            dense = [0] * prec
            dense[r0::24] = [modulus - 1] * len(range(r0, prec, 24))
            f = QExp24.from_dict(dict.fromkeys(range(r0, prec, 24), modulus - 1), prec, modulus, r0)
            lam_int = (r0 + p) % 4
            want = dense_hecke_tp2(_dense_prefix(dense, prec, modulus, r0), p, lam_int).coeffs[r0::24]
            for s in (0, 1, modulus - 1):
                got = halfint._tp2(f, p, lam_int, kronecker_oracle(12, p), s)
                assert got.dtype == storage_dtype(modulus)
                assert got.tolist() == [(b - s * (modulus - 1)) % modulus for b in want], (r0, p, s)


@pytest.mark.parametrize("modulus", RINGS)
def test_theta_power_matches_the_dense_oracle_on_dense_and_sparse_strands(modulus):
    # theta_op raises only the nonzero entries' weights; every strand entry
    # nonzero, and two of them nonzero, must give the dense definition's
    # coefficients at j = 0, 1, ell - 1, ell and 2 ell - 1
    rng = random.Random(modulus)
    for residue in (0, 1, 7, 23):
        prec = residue + 24 * 40 + 1
        slots = range(residue, prec, 24)
        dense = [0] * prec
        for n in slots:
            dense[n] = rng.randrange(1, modulus)
        sparse = [0] * prec
        for n in rng.sample(slots, 2):
            sparse[n] = rng.randrange(1, modulus)
        for coeffs in (dense, sparse):
            f, rf = QExp24(coeffs, prec, modulus, residue), DenseSeries(coeffs, prec, modulus, residue)
            for j in (0, 1, modulus - 1, modulus, 2 * modulus - 1):
                same(theta_op(f, j), dense_theta(rf, j))


@SETTINGS
@given(pairs(count=1), st.integers(0, 23), st.integers(0, 150))
def test_equality_and_first_difference_across_tags(fs, r, n):
    [(f, rf)] = fs
    copy = QExp24(f.coeffs, f.prec, f.modulus, f.residue)
    assert copy == f and f == copy
    zero_r = QExp24.zero(f.prec, f.modulus, r)
    assert (zero_r == f) == rf.is_zero()
    assert f.first_difference(zero_r, f.prec) == (None if rf.is_zero() else rf.valuation())
    n %= f.prec
    if n % 24 == f.residue or rf.is_zero():
        # one changed coefficient, on f's class or on the class of zero
        bumped = list(rf.coeffs)
        bumped[n] += 1
        g, first = QExp24(bumped, f.prec, f.modulus, n % 24), n
    else:
        # two classes agree only where both are zero
        g, first = QExp24.from_dict({n: 1}, f.prec, f.modulus, n % 24), min(n, rf.valuation())
    assert g != f and f != g
    assert f.first_difference(g, f.prec) == first
    assert f.first_difference(g, first) is None


@pytest.mark.parametrize("modulus", RINGS)
def test_square_strand_matches_the_kronecker_oracle(modulus):
    # entry (m n^2 - m % 24) / 24 holds (12|n) n^lam for n prime to 6, at
    # every length that ends on a square index, just past one, and between
    for m in (1, 5, 13, 23, modulus):
        r = m % 24
        square_at = {}  # strand entry -> n
        n = 1
        while (m * n * n - r) // 24 <= 400:
            if math.gcd(n, 6) == 1:
                square_at[(m * n * n - r) // 24] = n
            n += 1
        lengths = set(range(0, 401, 37)) | {j for j in square_at} | {j + 1 for j in square_at}
        for lam in range(5):
            want = [0] * 401
            for j, n in square_at.items():
                want[j] = kronecker_oracle(12, n) * n**lam % modulus
            for length in sorted(lengths):
                got = _square_strand(m, length, modulus, lam)
                assert got.dtype == storage_dtype(modulus)
                assert got.tolist() == want[:length], (m, lam, length)


def _oracle_terms(m, length, modulus, lam):
    """[(entry, (12|n) n^lam mod ell)] for the n prime to 6 whose entry (m n^2 - m % 24) / 24 is below length."""
    terms, n = [], 1
    while (m * n * n - m % 24) // 24 < length:
        if math.gcd(n, 6) == 1:
            terms.append(((m * n * n - m % 24) // 24, kronecker_oracle(12, n) * pow(n, lam, modulus) % modulus))
        n += 1
    return terms


def _same_terms(m, length, modulus, lam):
    # the cached terms and the strand scattered from them are the oracle's
    entries, values = _square_terms(m, length, modulus, lam)
    want = _oracle_terms(m, length, modulus, lam)
    assert list(zip(entries.tolist(), values.tolist())) == want, (m, length, lam)
    assert values.dtype == storage_dtype(modulus) and not values.flags.writeable
    strand = [0] * length
    for j, v in want:
        strand[j] = v
    assert _square_strand(m, length, modulus, lam).tolist() == strand


def _square_keys():
    return {key[1:] for key in qseries._TABLES if key[0] is qseries._square_table}


# square strand lengths in the order asked at m = 1, with the terms each
# leaves cached: built cold at 5 (n = 1, 5, 7), a prefix at 2, grown past
# n = 11 to max(4, 2 * 3) terms
SQUARE_LENGTHS = ((5, 3), (2, 3), (7, 6))


@pytest.mark.parametrize("modulus", RINGS)
def test_square_terms_are_one_cached_prefix_per_reduced_exponent(cold_caches, modulus):
    for lam in (0, 3):
        for length, cached in SQUARE_LENGTHS:
            _same_terms(1, length, modulus, lam)
            assert qseries._TABLES[qseries._square_table, 1, modulus, lam][0] == cached
    # lam + (ell - 1) reads lam's key: n^(ell - 1) = 1 for n prime to ell, and 0^e = 0 for e >= 1
    held = qseries._TABLES[qseries._square_table, 1, modulus, 3]
    _same_terms(1, 7, modulus, 3 + (modulus - 1))
    assert _square_keys() == {(1, modulus, 0), (1, modulus, 3)}
    assert qseries._TABLES[qseries._square_table, 1, modulus, 3] is held
    # T1(0) = eta keeps the terms at ell | n; lam = ell - 1 has its own key and kills them
    if modulus < 100:
        length = (modulus * modulus - 1) // 24 + 1
        _same_terms(1, length, modulus, 0)
        _same_terms(1, length, modulus, modulus - 1)
        assert _square_terms(1, length, modulus, 0)[1][-1] == kronecker_oracle(12, modulus) % modulus
        assert _square_terms(1, length, modulus, modulus - 1)[1][-1] == 0
    # m = ell: past ell = 9600 no term lies below entry 400, so nothing is
    # filled or cached, and m, past int64 at 2^64 + 13, multiplies nothing
    entries, values = _square_terms(modulus, 400, modulus)
    assert (entries.size == 0) == (modulus > 24 * 400) and values.dtype == storage_dtype(modulus)
    assert ((modulus, modulus, 0) in _square_keys()) == (modulus <= 24 * 400)
    # a caller owns its strand: writing into it leaves the next one intact
    cold_caches()
    for lam in (0, 3):
        strand = _square_strand(1, 7, modulus, lam)
        strand[:] = 1
        _same_terms(1, 7, modulus, lam)
        _same_terms(1, 7, modulus, lam)  # warm


# every table of the store: its build and the arguments after the size
TABLES = {
    "prime_to_6": (qseries._prime_to_6_table, ()),
    "square_terms": (qseries._square_table, (13, 13, 3)),
    "signs": (halfint._sign_table, (7, 13)),
    "divisor_pairs": (halfint._pair_table, ()),
    "characters": (halfint._character_table, (35, 1)),
}


@pytest.mark.parametrize("name", TABLES)
def test_a_table_is_a_read_only_prefix_grown_at_least_twofold(cold_caches, name):
    # cold at size 0, then short, long and short: each answer is a fresh
    # build's prefix, read-only, the same object while covered (9 is past
    # the longest request but not past the 10 held), rebuilt past the held
    # n at max(size, 2 n), and held under twice the longest request
    build, args = TABLES[name]
    key, longest, last, held = (build, *args), 0, None, -1
    for size in (0, 5, 7, 9, 40, 3):
        got = qseries._table(build, args, size)
        for a, want in zip(got, build(size, *args), strict=True):
            assert a.dtype == want.dtype and a[: want.size].tolist() == want.tolist(), size
            assert not a.flags.writeable
        assert (got is last) == (size <= held), size
        grown = max(size, 2 * held) if size > held else held
        held, longest, last = qseries._TABLES[key][0], max(longest, size), got
        assert held == grown and longest <= held and (held < 2 * longest or held == 0), size


@SETTINGS
@given(pairs(count=1), st.integers(0, 150))
def test_first_power_is_the_series_and_a_short_truncation_copies(fs, cut):
    # a series is immutable, so f ** 1 and f.truncate(f.prec) are f; a
    # truncation to under half the strand copies it rather than keep the
    # long strand alive as its base
    [(f, _)] = fs
    assert f**1 is f and f.truncate(f.prec) is f
    g = f.truncate(max(1, f.prec - cut))
    if g.values.size:
        assert np.shares_memory(g.values, f.values) == (2 * g.values.size >= f.values.size)


@pytest.mark.parametrize("modulus", RINGS)
def test_inverse_on_both_sides_of_the_newton_crossover(modulus):
    # _inverse follows the recurrence below 32 terms and Newton from there
    rng = random.Random(modulus)
    a = np.array([1] + [rng.randrange(modulus) for _ in range(99)], dtype=storage_dtype(modulus))
    for length in (1, 2, 31, 32, 33, 64, 100):
        inv = _inverse(a, modulus, length)
        assert inv.dtype == storage_dtype(modulus) and inv.size == length
        product = [sum(int(a[i]) * int(inv[n - i]) for i in range(n + 1)) % modulus for n in range(length)]
        assert product == [1] + [0] * (length - 1), length


def _package_nodes(but=None):
    """(module name, node) for every syntax node of the package's modules, but the module but."""
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "etakit"
    for path in sorted(package.glob("*.py")):
        if path.name != but:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_no_module_but_qseries_reads_dense_coeffs():
    # the certification path works on strands; a dense rebuild elsewhere is a regression
    readers = []
    for name, node in _package_nodes(but="qseries.py"):
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            readers.append(f"{name}:{node.lineno}")
    assert readers == []


def test_no_module_but_qseries_names_the_int64_limits():
    # storage dtype and widening are decided by qseries' kernel alone; every
    # other module reaches int64 sums only through _conv and _dot
    limits = {"_exact", "_dtype", "_INT64_BOUND"}
    users = []
    for name, node in _package_nodes(but="qseries.py"):
        if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)} & limits:
            users.append(f"{name}:{node.lineno}")
    assert users == []


def test_no_module_rebinds_a_module_global():
    # a table that grows goes through qseries._table, not a global of its own
    found = [f"{name}:{node.lineno}" for name, node in _package_nodes() if isinstance(node, ast.Global)]
    assert found == []


def test_no_module_but_qseries_forms_a_sum_of_products():
    # a lean path that calls numpy's products itself would bypass the
    # kernel's overflow rule: every sum of products outside qseries goes
    # through _conv, _conv_rows, _dot or _sparse_conv
    products = {"convolve", "correlate", "matmul", "dot"}
    users = []
    for name, node in _package_nodes(but="qseries.py"):
        named = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
        if named & products or isinstance(getattr(node, "op", None), ast.MatMult):
            users.append(f"{name}:{node.lineno}")
    assert users == []


def _names_the_ring(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("modulus", "ell")) or (
        isinstance(node, ast.Attribute) and node.attr == "modulus"
    )


def test_no_module_compares_the_ring_with_none():
    # F_ell is the one ring: no module asks whether a series or an ell has
    # one (a CLI flag, args.ell, may still be unset)
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Constant) and x.value is None for x in operands) and any(
                map(_names_the_ring, operands)
            ):
                found.append(f"{name}:{node.lineno}")
    assert found == []


def _names_a_residue(node) -> bool:
    return (isinstance(node, ast.Name) and node.id in ("residue", "r0")) or (
        isinstance(node, ast.Attribute) and node.attr == "residue"
    )


def test_no_module_asks_for_a_series_off_one_class():
    # every series lives on one class mod 24: no module compares a residue
    # with None, re-tags a series or asks for the dense strand(None)
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(x, ast.Constant) and x.value is None for x in operands) and any(
                map(_names_a_residue, operands)
            ):
                found.append(f"{name}:{node.lineno}")
        elif getattr(node, "attr", None) == "with_residue" or getattr(node, "name", None) == "with_residue":
            found.append(f"{name}:{node.lineno}")
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "strand":
            if any(isinstance(x, ast.Constant) and x.value is None for x in node.args):
                found.append(f"{name}:{node.lineno}")
    assert found == []


@pytest.mark.parametrize(
    "build",
    [
        lambda: QExp24([1], 1, 5),
        lambda: QExp24([1], 1, 5, None),
        lambda: QExp24.zero(4, 5),
        lambda: QExp24.from_dict({1: 1}, 4, 5),
    ],
    ids=["QExp24", "QExp24-None", "zero", "from_dict"],
)
def test_a_series_without_a_class_is_refused(build):
    with pytest.raises(TypeError):
        build()
