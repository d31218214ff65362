"""Floating-point tests of the transformation machinery."""

import cmath
import math
import random

import pytest

from etakit import numeric, qseries
from etakit.qseries import PrecisionError
from etakit.numeric import (
    _DECAY,
    _term_count,
    UnimodularMatrix,
    epsilon_identities,
    eta_multiplier_exponent,
    eta_multiplier_value,
    eta_value,
    verify_eta_transform,
)

from oracles import kronecker_oracle

S = UnimodularMatrix(0, -1, 1, 0)
T = UnimodularMatrix(1, 1, 0, 1)


# === matrix plumbing ===


def test_matrix_validation():
    with pytest.raises(ValueError):
        UnimodularMatrix(1, 0, 0, -1)
    with pytest.raises(ValueError):
        UnimodularMatrix(2, 0, 0, 2)


def test_matrix_algebra():
    assert UnimodularMatrix.identity() @ S == S
    st = S @ T
    assert (st.a, st.b, st.c, st.d) == (0, -1, 1, 1)
    assert -S == UnimodularMatrix(0, 1, -1, 0)
    # S has order 4, (ST) has order 6 up to sign
    assert S @ S == -UnimodularMatrix.identity()
    assert st @ st @ st == -UnimodularMatrix.identity()


def test_matrix_action():
    assert S.act(1j) == pytest.approx(1j)
    assert T.act(0.5 + 2j) == pytest.approx(1.5 + 2j)
    g = UnimodularMatrix(2, 1, 1, 1)
    z = 0.3 + 0.7j
    assert g.act(z) == pytest.approx((2 * z + 1) / (z + 1))


# === multiplier exponents ===


def test_eta_exponent_generators():
    assert eta_multiplier_exponent(T) == 1
    assert eta_multiplier_exponent(S) == 21
    assert eta_multiplier_exponent(-UnimodularMatrix.identity()) == 18
    assert eta_multiplier_exponent(-S) == 3
    assert eta_multiplier_exponent(UnimodularMatrix.identity()) == 0


def test_eta_exponent_translation_powers():
    g = UnimodularMatrix.identity()
    for n in range(1, 30):
        g = g @ T
        assert eta_multiplier_exponent(g) == n % 24


def test_eta_exponent_range():
    rng = random.Random(5)
    g = UnimodularMatrix.identity()
    for _ in range(60):
        g = g @ (S if rng.random() < 0.5 else T)
        assert 0 <= eta_multiplier_exponent(g) < 24


def test_eta_multiplier_value_is_root_of_unity():
    v = eta_multiplier_value(S)
    assert abs(v) == pytest.approx(1.0)
    assert v**24 == pytest.approx(1.0)
    assert eta_multiplier_value(T) == pytest.approx(cmath.exp(1j * math.pi / 12))


# === special values ===


def test_eta_at_i():
    # eta(i) = Gamma(1/4) / (2 pi^(3/4))
    want = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(want - 0.7682254223260566) < 1e-15
    got = eta_value(1j)
    assert abs(got - want) < 1e-12
    assert abs(got.imag) < 1e-15


def test_eta_value_equals_the_sum_over_every_n():
    # the terms with (12|n) = 0 add nothing, so skipping them leaves the
    # floating-point sum bit-identical to the sum over every n
    rng = random.Random(12)
    for _ in range(40):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.02, 3))
        n_max = _term_count(z.imag)
        w = 2j * math.pi * z / 24.0
        total = 0.0 + 0.0j
        for n in range(1, n_max + 1):
            chi = kronecker_oracle(12, n)
            if chi:
                total += chi * cmath.exp(w * n * n)
        assert eta_value(z) == total, z


def _eta_by_loop(z: complex) -> complex:
    """eta(z) added term by term, left to right, over every n."""
    w = 2j * math.pi * z / 24.0
    total = 0.0 + 0.0j
    for n in range(1, _term_count(z.imag) + 1):
        chi = {1: 1, 5: -1, 7: -1, 11: 1}.get(n % 12, 0)
        if chi:
            total += chi * cmath.exp(w * n * n)
    return total


def _y_for_terms(n_max: int) -> float:
    """An Im(z) whose term count is n_max."""
    y = -math.log(1e-16) / (_DECAY * (n_max - 1.5) ** 2)
    assert _term_count(y) == n_max
    return y


def test_eta_value_does_not_depend_on_the_order_of_its_points(cold_caches):
    # the table of n prime to 6 starts empty and grows on demand: a short
    # sum, one past half the 20000-term cap, one near it, then the short
    # one again; the middle table doubled stays under twice the longest
    small = 0.3 + _y_for_terms(40) * 1j
    first = eta_value(small)
    assert first == _eta_by_loop(small)
    for n_max, x in ((12000, 0.9), (19990, -1.7)):
        z = complex(x, _y_for_terms(n_max))
        assert eta_value(z) == _eta_by_loop(z), z
    held, _ = qseries._TABLES[qseries._prime_to_6_table,]
    assert 6663 <= held < 2 * 6663  # the n prime to 6 up to 19990, under twice the longest request
    assert eta_value(small) == first


@pytest.mark.parametrize("n_max", [600, 601, 602, 603, 604, 605])
def test_eta_value_at_each_term_count_mod_6(n_max):
    # the count of n <= n_max prime to 6 steps at n_max = 1 and 5 (mod 6)
    for x in (-0.45, 0.0, 0.2):
        z = complex(x, _y_for_terms(n_max))
        assert eta_value(z) == _eta_by_loop(z), z


def test_eta_in_lower_half_plane():
    with pytest.raises(ValueError):
        eta_value(1.0 - 1j)
    with pytest.raises(ValueError):
        eta_value(0.5 + 0j)


def test_term_budget():
    # Im(z) = 1e-9 needs about 3.7e5 terms, past the 20000-term cap
    with pytest.raises(PrecisionError):
        eta_value(1e-9j + 0.1)


# === transformation laws ===


def test_eta_translation_law():
    z = 0.37 + 0.91j
    lhs = eta_value(z + 1)
    rhs = cmath.exp(1j * math.pi / 12) * eta_value(z)
    assert abs(lhs - rhs) < 1e-13


def test_eta_inversion_law():
    z = 0.2 + 1.3j
    lhs = eta_value(-1 / z)
    rhs = cmath.sqrt(-1j * z) * eta_value(z)
    assert abs(lhs - rhs) < 1e-12


def test_verify_eta_transform_generators():
    for g in (S, T, -S, -T, S @ T, T @ S @ T):
        assert verify_eta_transform(g, 0.31 + 0.83j) < 1e-10, g


def test_verify_eta_transform_word_sweep():
    rng = random.Random(404)
    z = 0.25 + 1.1j
    for _ in range(40):
        g = UnimodularMatrix.identity()
        for _ in range(rng.randint(1, 8)):
            g = g @ (S if rng.random() < 0.4 else T)
        if rng.random() < 0.3:
            g = -g
        assert verify_eta_transform(g, z) < 1e-9, g


# === exact eighth-root identities ===


def test_epsilon_identities_hold():
    assert epsilon_identities(199) is None


def test_eta_value_is_summed_once_per_point():
    # verify_eta_transform sums eta(z) on every call; the cache keeps the
    # last 64 points, and a cached value is the summed value, bit for bit
    eta_value.cache_clear()
    for b in range(5):  # T^b moves 1j to 1j + b
        assert verify_eta_transform(UnimodularMatrix(1, b, 0, 1), 1j) < 1e-12
    assert (eta_value.cache_info().misses, eta_value.cache_info().hits) == (5, 5)
    for z in (1j, 2 + 1j, 0.3 + 0.7j):
        assert eta_value(z) == eta_value.__wrapped__(z)
