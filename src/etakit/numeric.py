"""Floating-point checks of the transformation laws behind the algebra.

The q-expansion modules never touch the multiplier formulas directly;
this module evaluates eta as an honest complex function and compares
both sides of its transformation law, so the exponent bookkeeping
(including the c <= 0 branches) is pinned by numbers rather than by
convention.  The exact eps_d identities behind the two-branch formula
are checked separately, in eighth roots of unity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qseries import PrecisionError, _count_prime_to_6, _prime_to_6, kronecker

__all__ = [
    "UnimodularMatrix",
    "eta_multiplier_exponent",
    "eta_multiplier_value",
    "eta_value",
    "verify_eta_transform",
    "epsilon_identities",
]

# the n-th term of eta(z) has modulus exp(-_DECAY * n^2 * Im(z))
_DECAY = 2.0 * math.pi / 24.0


@dataclass(frozen=True)
class UnimodularMatrix:
    """Integer matrix [[a, b], [c, d]] with determinant exactly 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(
                f"determinant is {self.a * self.d - self.b * self.c}, not 1"
            )

    def __neg__(self) -> "UnimodularMatrix":
        return UnimodularMatrix(-self.a, -self.b, -self.c, -self.d)

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def act(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)


def eta_multiplier_exponent(gamma: UnimodularMatrix) -> int:
    """Exponent e in Z/24 with eta(gamma z) = e(e/24) (cz+d)^(1/2) eta(z).

    The two-branch formula covers c > 0; a symbol value -1 folds in as
    +12.  For c = 0 the value is e(b/24) when d > 0.  Negated inputs
    reduce through -gamma: the principal square root satisfies
    (-w)^(1/2) = i w^(1/2) for Im(w) < 0 and -i w^(1/2) for w on the
    negative real axis, which is exponent +6 for c < 0 and -6 for
    c = 0, d < 0.
    """
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    if c < 0:
        return (eta_multiplier_exponent(-gamma) + 6) % 24
    if c == 0:
        if d < 0:
            return (eta_multiplier_exponent(-gamma) - 6) % 24
        return b % 24
    if c % 2:
        sym = kronecker(d, c)
        e = (a + d) * c - b * d * (c * c - 1) - 3 * c
    else:
        sym = kronecker(c, d)
        e = (a + d) * c - b * d * (c * c - 1) + 3 * d - 3 - 3 * c * d
    if sym == 0:
        raise ValueError(f"degenerate symbol for {gamma}")
    return (e + (12 if sym < 0 else 0)) % 24


def eta_multiplier_value(gamma: UnimodularMatrix) -> complex:
    return cmath.exp(2j * math.pi * eta_multiplier_exponent(gamma) / 24.0)


def _term_count(y: float) -> int:
    # smallest n with exp(-_DECAY * n^2 * y) < 1e-16, plus slack
    n = int(math.sqrt(-math.log(1e-16) / (_DECAY * y))) + 2
    if n > 20000:
        raise PrecisionError(f"needs {n} terms for convergence, the cap is 20000")
    return n


@lru_cache(maxsize=64)
def eta_value(z: complex) -> complex:
    """eta(z) summed as sum (12/n) e(n^2 z / 24) over n >= 1.

    The sum is sparse (only n coprime to 6 contribute) and converges for
    any z in the upper half plane; small Im(z) costs more terms, and
    needing more than 20000 is a PrecisionError.  cumsum adds the terms
    left to right in one vectorised pass, so the value is bit-identical
    to the term-by-term loop.  The function is pure, so the last 64
    points are cached: a sweep of matrices at one z sums eta(z) once.
    """
    y = z.imag
    if y <= 0:
        raise ValueError("eta is defined on the upper half plane")
    n, chi, _ = _prime_to_6(_count_prime_to_6(_term_count(y)))
    w = 2j * math.pi * z / 24.0
    return complex((chi * np.exp(w * n * n)).cumsum()[-1])


def verify_eta_transform(gamma: UnimodularMatrix, z: complex) -> float:
    """|eta(gamma z) - nu (cz+d)^(1/2) eta(z)| in double precision.

    cmath.sqrt is the principal branch, matching the multiplier's
    conventions.  Raises PrecisionError when Im(gamma z) is too small
    for the truncated sum to converge within 20000 terms.
    """
    lhs = eta_value(gamma.act(z))
    jac = cmath.sqrt(gamma.c * z + gamma.d)
    rhs = eta_multiplier_value(gamma) * jac * eta_value(z)
    return abs(lhs - rhs)


def _eps_exponent(d: int) -> int:
    # eps_d as an 8th-root exponent: 0 for d = 1 mod 4, 2 (i.e. i) for d = 3
    return 0 if d % 4 == 1 else 2


def epsilon_identities(d_max: int):
    """Exact 8th-root checks of the two epsilon identities for odd d <= d_max.

    e((1-d)/8) = (2/d) eps_d, and eps_(d1 d2) = eps_d1 eps_d2 times
    (-1)^((d1-1)(d2-1)/4).  Returns None when every case passes, else
    the first counterexample as a tuple.
    """
    for d in range(1, d_max + 1, 2):
        lhs = (1 - d) % 8
        rhs = (_eps_exponent(d) + (0 if kronecker(2, d) == 1 else 4)) % 8
        if lhs != rhs:
            return ("e((1-d)/8) = (2/d) eps_d", d)
    for d1 in range(1, d_max + 1, 2):
        for d2 in range(1, d_max + 1, 2):
            lhs = _eps_exponent(d1 * d2)
            sign = ((d1 - 1) // 2) * ((d2 - 1) // 2) % 2
            rhs = (_eps_exponent(d1) + _eps_exponent(d2) + 4 * sign) % 8
            if lhs != rhs:
                return ("eps_(d1 d2) = eps_d1 eps_d2 (-1)^((d1-1)(d2-1)/4)", d1, d2)
    return None
