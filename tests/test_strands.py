"""Strand storage of QExp24 against the dense reference in oracles.py.

Every operation on the strands must give the coefficients, precision and
residue tag that the dense definitions give.  The rings include
ell = 2^31 - 1, where a convolution of three or more terms overflows
int64 and takes the exact path, and the two primes on either side of the
storage rule: 3037000493, the largest prime ell whose product of two
residues fits in int64, which stores int64, and 3037000507, which stores
Python integers like 4294967311 and 2^64 + 13.
"""

import ast
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from etakit.halfint import hecke_tp2
from etakit.qseries import QExp24, theta_op, twist, u_op, v_op

from oracles import (
    DenseSeries,
    dense_add,
    dense_hecke_tp2,
    dense_mul,
    dense_scale,
    dense_theta,
    dense_twist,
    dense_u,
    dense_v,
)

MOD_RINGS = (5, 7, 13, 2**31 - 1, 3037000493, 3037000507, 4294967311, 2**64 + 13)
RINGS = (None,) + MOD_RINGS
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

coefficient = st.one_of(st.just(0), st.integers(-(2**70), 2**70))


@st.composite
def dense_lists(draw, residue, max_prec=150):
    """(coeffs, prec) with support in the class residue when one is given."""
    prec = draw(st.integers(1, max_prec))
    if residue is None:
        return draw(st.lists(coefficient, max_size=prec)), prec
    coeffs = [0] * prec
    for m, c in enumerate(draw(st.lists(coefficient, max_size=len(range(residue, prec, 24))))):
        coeffs[residue + 24 * m] = c
    return coeffs, prec


@st.composite
def pairs(draw, rings=RINGS, count=2, max_prec=150):
    """count (QExp24, DenseSeries) pairs over one ring, each tagged or not."""
    modulus = draw(st.sampled_from(rings))
    out = []
    for _ in range(count):
        residue = draw(st.one_of(st.none(), st.integers(0, 23)))
        coeffs, prec = draw(dense_lists(residue, max_prec))
        out.append((QExp24(coeffs, prec, modulus, residue), DenseSeries(coeffs, prec, modulus, residue)))
    return out


def same(f, ref):
    assert f.coeffs == tuple(ref.coeffs)
    assert (f.prec, f.modulus, f.residue) == (ref.prec, ref.modulus, ref.residue)
    assert len(f.values) == len(range(f.offset, f.prec, f.step))


@SETTINGS
@given(st.sampled_from(RINGS), st.one_of(st.none(), st.integers(0, 23)), dense_lists(None))
def test_construction_raises_at_the_same_index(modulus, residue, dense):
    coeffs, prec = dense
    try:
        ref = DenseSeries(coeffs, prec, modulus, residue)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            QExp24(coeffs, prec, modulus, residue)
        assert str(info.value) == str(exc)
        return
    f = QExp24(coeffs, prec, modulus, residue)
    same(f, ref)
    assert not f.values.flags.writeable
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
    same(f + g, dense_add(rf, rg))
    same(f - g, dense_add(rf, rg, -1))
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
@given(pairs(count=1), st.integers(1, 30), st.integers(0, 24))
def test_u_v_truncate_and_residue_tags(fs, m, cut):
    [(f, rf)] = fs
    same(u_op(f, m), dense_u(rf, m))
    same(v_op(f, m), dense_v(rf, m))
    assert u_op(v_op(f, m), m) == f
    prec = max(1, f.prec - cut)
    same(f.truncate(prec), DenseSeries(rf.coeffs[:prec], prec, rf.modulus, rf.residue))
    for r in (None, f.residue, 0, 1, 13):
        try:
            ref = DenseSeries(rf.coeffs, rf.prec, rf.modulus, r)
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                f.with_residue(r)
            assert str(info.value) == str(exc)
            continue
        same(f.with_residue(r), ref)


@SETTINGS
@given(pairs(rings=MOD_RINGS, count=1, max_prec=400), st.sampled_from((5, 7, 11)), st.integers(0, 6))
def test_theta_twist_and_hecke(fs, p, lam_int):
    [(f, rf)] = fs
    same(theta_op(f), dense_theta(rf))
    for kind in ("quadratic", "trivial"):
        same(twist(f, p, kind), dense_twist(rf, p, kind))
    if p != f.modulus:
        same(hecke_tp2(f, p, lam_int), dense_hecke_tp2(rf, p, lam_int))


@SETTINGS
@given(pairs(count=1), st.integers(0, 23), st.integers(0, 150))
def test_equality_and_first_difference_across_tags(fs, r, n):
    [(f, rf)] = fs
    untagged = f.with_residue(None)
    assert untagged == f and f == untagged
    assert untagged.residue is None
    zero_r = QExp24.zero(f.prec, f.modulus, r)
    assert (zero_r == f) == rf.is_zero()
    assert f.first_difference(zero_r, f.prec) == (None if rf.is_zero() else rf.valuation())
    # one changed coefficient, tagged on its own class or not
    n %= f.prec
    bumped = list(rf.coeffs)
    bumped[n] += 1
    g = QExp24(bumped, f.prec, f.modulus)
    variants = [g]
    if g.first_off_class(n % 24) is None:
        variants.append(g.with_residue(n % 24))
    for h in variants:
        assert h != f and f != h
        assert f.first_difference(h, f.prec) == n
        assert f.first_difference(h, n) is None


def _nodes_outside_qseries():
    """(module name, node) for every syntax node of the package but qseries."""
    package = pathlib.Path(__file__).resolve().parent.parent / "src" / "etakit"
    for path in sorted(package.glob("*.py")):
        if path.name != "qseries.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                yield path.name, node


def test_no_module_but_qseries_reads_dense_coeffs():
    # the certification path works on strands; a dense rebuild elsewhere is a regression
    readers = []
    for name, node in _nodes_outside_qseries():
        if isinstance(node, ast.Attribute) and node.attr == "coeffs":
            readers.append(f"{name}:{node.lineno}")
    assert readers == []


def test_no_module_but_qseries_names_the_int64_limits():
    # storage dtype and widening are decided by qseries' kernel alone; every
    # other module reaches int64 sums only through _conv and _dot
    limits = {"_exact", "_dtype", "_INT64_BOUND"}
    users = []
    for name, node in _nodes_outside_qseries():
        if {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)} & limits:
            users.append(f"{name}:{node.lineno}")
    assert users == []
