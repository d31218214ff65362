"""Exact truncated q-expansions indexed in 1/24-integral powers.

A series is sum_{0 <= n < prec} a(n) q^(n/24) with coefficients in F_ell
for a prime ell >= 5, the one ring of the package, supported on one
residue class r0 mod 24: a(n) != 0  =>  n = r0 (mod 24).  Every form of
the paper is eta^r0 times a level-one form, and theta, U_ell, V_ell,
T(p^2), products and powers keep a series on one class.  Integer-exponent
forms are the class r0 = 0.

Storage is one numpy strand per series: entry m of ``values`` is the
coefficient at index r0 + 24 m.  Coefficients off the class have no
slot, so the support claim holds by construction.  Input is checked
once, where it enters: the public constructor, which ``zero``, ``one``,
``from_dict`` and ``series_from_text`` go through; ``from_dict`` takes
the constructor's zero strand and writes each term into its slot, with
the same checks.  Every operation computes its output strand, reduced,
from its input strands and wraps it with the trusted constructor
``QExp24._of``, which checks nothing.
Residues mod ell are stored as int64 when a product of two fits,
ell <= 3037000493; larger ell use object arrays of Python integers.  The
dense tuple ``coeffs`` is built only on first access.

All values are immutable after construction; every operation returns a
new series.  Precision bookkeeping is pessimistic and certified: an
operation's output precision is the largest P such that all indices
n < P of the true result are determined by the known prefixes of the
inputs.

This module's kernel section is the only code that knows int64 limits.
With that storage rule, an elementwise product of residues reduced mod
ell is exact in the storage dtype.  Only sums of products can overflow,
and only ``_conv``, ``_conv_rows``, ``_dot`` and ``_sparse_conv`` form
them: each widens its operands to Python integers, or reduces as it
sums, when its sums could pass 2^63.

The square series sum (12|n) n^lam q^(m n^2 / 24) over n prime to 6 (eta
at m = 1, the classify targets T1(lam) and T2 = eta^ell at m = 1 and
m = ell) have about sqrt(24 length / m) / 3 terms below a strand of
length entries.  One cache holds their terms, not their strands: keyed
by (m, ell, e), with e the exponent reduced as ``_pow_mod`` reduces it
(lam = 0 stays 0), it keeps the ascending strand entries and the residues
(12|n) n^e mod ell.  A request reads a prefix, whose size has a closed
form in n; a key is built at the size first asked and grows to at least
twice its terms, so it holds fewer than twice the terms of its longest
request: about 150 for eta at a prec of 200000.  Every strand built from
it is a fresh zeros array and one scatter.  Multiplying by eta reads the
same terms: the full-depth membership check in ``spaces`` compares f
with eta^r0 times a combination of basis rows, in r0 sparse passes, and
inverts eta^r0 only over the pivots.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache

import numpy as np

__all__ = [
    "PrecisionError",
    "QExp24",
    "kronecker",
    "is_prime",
    "squarefree_part",
    "eta_series",
    "theta_op",
    "u_op",
    "v_op",
    "support_square_classes",
    "series_to_text",
    "series_from_text",
]


class PrecisionError(ValueError):
    """A coefficient index or verification depth lies beyond known precision."""


# The first 13 primes as Miller-Rabin bases decide primality of every n
# below psi_13, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n at or above psi_13 = 3.317e24."""
    if n < 2:
        return False
    if n >= _MR_BOUND:
        raise ValueError(f"is_prime is proven only below {_MR_BOUND}, got {n}")
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n).

    Completely multiplicative in both arguments, with the standard
    extension to even and nonpositive lower arguments:
    (a|2) is 0 for even a and (-1)^((a^2-1)/8) for odd a,
    (a|-1) is -1 exactly when a < 0, and (a|0) is nonzero only for
    a = +-1.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        if a < 0:
            result = -1
        n = -n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # n is odd and positive from here: Jacobi with reciprocity.
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor t with n/t a perfect square."""
    if n <= 0:
        raise ValueError("squarefree_part needs a positive integer")
    part = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                part *= p
        p += 1 if p == 2 else 2
    return part * n  # leftover n is 1 or a prime appearing once


def _validate_modulus(value, name="modulus"):
    """The one rule for a modulus, ell or p: a prime >= 5."""
    if value is None or value < 5 or not is_prime(value):
        raise ValueError(f"{name} must be a prime >= 5, got {value}")


# === exact kernels on strands ===

# Residues lie in [0, ell), so a sum of n products of two residues stays
# below n * (ell - 1)^2; int64 numpy is exact while that is below this.
_INT64_BOUND = 2**63


def _dtype(ell):
    """int64 for F_ell when a product of residues fits, (ell - 1)^2 < 2^63; else Python integers."""
    return np.int64 if (ell - 1) ** 2 < _INT64_BOUND else object


def _reduce(a: np.ndarray, ell) -> np.ndarray:
    """a mod ell in the ring's storage dtype."""
    if (ell - 1) ** 2 >= _INT64_BOUND:  # widen first: an int64 array cannot take % ell past 2^63
        return a.astype(object, copy=False) % ell
    return (a % ell).astype(np.int64, copy=False)


def _conv(a: np.ndarray, b: np.ndarray, ell, length: int) -> np.ndarray:
    """(a * b mod ell) truncated or zero-padded to length."""
    a, b = a[:length], b[:length]
    n = min(a.size, b.size)
    if n * (ell - 1) ** 2 >= _INT64_BOUND:  # a sum of n products could pass 2^63
        c = _reduce(np.convolve(a.astype(object, copy=False), b.astype(object, copy=False))[:length], ell)
    else:
        c = np.convolve(a, b)[:length] % ell if n else a[:0]
    if c.size == length:
        return c
    out = np.zeros(length, dtype=c.dtype)
    out[: c.size] = c
    return out


def _dot(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """a @ b mod ell for a matrix b, in the ring's storage dtype, widened by the inner dimension."""
    if b.shape[0] * (ell - 1) ** 2 >= _INT64_BOUND:
        return _reduce(np.matmul(a.astype(object, copy=False), b.astype(object, copy=False)), ell)
    return np.matmul(a, b) % ell


def _toeplitz(a: np.ndarray, n: int) -> np.ndarray:
    """The n x n upper-triangular Toeplitz matrix [i, j] = a[j - i] of a[:n], as a read-only view.

    In (n - 1 zeros, a), row i starts i entries before a, so the rows
    step back one entry and the columns forward one: the view stores
    2n - 1 entries, not n^2.  The ndarray constructor builds it in under
    a third of the time of sliding_window_view (4 against 15 us at
    n = 40), a cost each Miller basis pays twice.
    """
    padded = np.zeros(2 * n - 1, dtype=a.dtype)
    padded[n - 1 :] = a[:n]
    step = padded.strides[0]
    view = np.ndarray((n, n), padded.dtype, padded, (n - 1) * step, (-step, step))
    view.setflags(write=False)
    return view


def _conv_rows(rows: np.ndarray, a: np.ndarray, ell, start: int) -> np.ndarray:
    """Coefficients start .. n - 1 of each row of rows times a mod ell, for n = rows.shape[1] <= a.size.

    One matrix product with columns start.. of the Toeplitz view of a,
    widened (a and rows, never the view) by the inner dimension n.
    """
    n = rows.shape[1]
    if n * (ell - 1) ** 2 >= _INT64_BOUND:
        rows, a = rows.astype(object, copy=False), a.astype(object, copy=False)
        return _reduce(np.matmul(rows, _toeplitz(a, n)[:, start:]), ell)
    return np.matmul(rows, _toeplitz(a, n)[:, start:]) % ell


def _sparse_conv(entries: np.ndarray, values: np.ndarray, b: np.ndarray, ell) -> np.ndarray:
    """(sum_t values[t] x^entries[t]) * b mod ell, truncated to b.size, for entries below b.size.

    One pass over b per term.  Each entry sums at most entries.size
    products of residues: they are reduced once when that sum stays below
    2^63, and after every term otherwise, where an entry holds a residue
    plus one product, below ell (ell - 1).
    """
    out = np.zeros_like(b)
    each = entries.size * (ell - 1) ** 2 >= _INT64_BOUND
    for j, v in zip(entries.tolist(), values.tolist()):
        out[j:] += v * b[: b.size - j]
        if each:
            out[j:] %= ell
    return out % ell


def _one(ell, length: int) -> np.ndarray:
    one = np.zeros(length, dtype=_dtype(ell))
    one[:1] = 1
    return one


def _power(a: np.ndarray, e: int, ell, length: int) -> np.ndarray:
    """a^e mod ell truncated or zero-padded to length, by repeated squaring.

    Past e = ell, a^(ell h + d) = a^d a(x^ell)^h (c^ell = c in F_ell, and an
    ell-th power has no cross terms): a^h is spread to every ell-th slot.
    """
    if e >= ell:
        h, d = divmod(e, ell)
        frobenius = np.zeros(length, dtype=_dtype(ell))
        frobenius[::ell] = _power(a, h, ell, -(-length // ell))
        return _conv(frobenius, _power(a, d, ell, length), ell, length) if d else frobenius
    if e < 2:  # a^1 is a itself, fitted to length in one pass, not a product with 1
        return _conv(a, _one(ell, 1), ell, length) if e else _one(ell, length)
    square = _power(_conv(a, a, ell, length), e // 2, ell, length)
    return _conv(square, a, ell, length) if e % 2 else square


# Below this length _inverse follows the recurrence: its n^2 / 2 products
# in Python integers cost less than Newton's 2 log2(n) array products
# there (timeit: 2.5 against 15 us at 2 terms, on a 2-core host).  A
# Miller basis inverts its row0 to dm terms, mostly under 10, and with
# Newton alone the integral-weight bench was slower in 16 of 20
# alternating 20 s pairs (op_p50_ms medians +1% at seed 1, +13% at
# seed 7); long inverses, such as 1/E4^3 at an ell's table length,
# take Newton's side.
_NEWTON_FROM = 32


def _inverse(a: np.ndarray, ell: int, length: int) -> np.ndarray:
    """1/a mod ell truncated to length, for a[0] == 1.

    A short inverse follows the defining recurrence
    b_n = -(a_1 b_(n-1) + ... + a_n b_0) in Python integers.  From
    _NEWTON_FROM terms on, Newton's step inv -> inv * (2 - a * inv)
    doubles the number of correct terms.
    """
    if length < _NEWTON_FROM:
        head, inv = a[:length].tolist(), [1]
        for n in range(1, length):
            inv.append(-sum(map(operator.mul, head[1 : n + 1], reversed(inv))) % ell)
        return np.array(inv, dtype=_dtype(ell))
    inv = _inverse(a, ell, _NEWTON_FROM - 1)
    n = inv.size
    while n < length:
        n = min(2 * n, length)
        step = -_conv(a, inv, ell, n) % ell
        step[0] = (step[0] + 2) % ell
        inv = _conv(inv, step, ell, n)
    return inv


def _length(prec: int, residue: int) -> int:
    """Number of strand entries below prec: the indices residue + 24 m."""
    return len(range(residue, prec, 24))


def _pow_mod(x: np.ndarray, e: int, ell: int) -> np.ndarray:
    """x^e mod ell elementwise (x^0 = 1) for e >= 0 and residues x mod a prime ell, by square-and-multiply.

    An exponent e >= 1 is first reduced to (e - 1) mod (ell - 1) + 1: x^ell = x
    for every residue (Fermat), and the shift keeps 0^e = 0 where e mod (ell - 1) = 0.
    """
    if e:
        e = (e - 1) % (ell - 1) + 1
    out = None  # no product with 1: x^1 is x itself
    while e:
        if e & 1:
            out = x if out is None else out * x % ell
        e >>= 1
        if e:
            x = x * x % ell
    return np.ones_like(x) if out is None else out


def _legendre(n: np.ndarray, p: int) -> np.ndarray:
    """(n|p) for nonnegative n and an odd prime p: Euler's criterion, tabled over n mod p."""
    size = min(p, int(n.max()) + 1) if n.size else 0
    table = _pow_mod(_reduce(np.arange(size), p), (p - 1) // 2, p)
    table = np.where(table == p - 1, -1, table).astype(np.int64)
    return table[n % size]


# the n prime to 6, n = 3i + 1 + (i & 1), (12|n) = -1 iff (i + 1) & 2, and
# (n^2 - 1) / 24; grown on demand
_N = _CHI = _Q = np.zeros(0, dtype=np.int64)


def _prime_to_6(n_max: int):
    """Views of the table: the n <= n_max prime to 6, their (12|n) and (n^2 - 1) / 24."""
    global _N, _CHI, _Q
    count = 2 * (n_max // 6) + (n_max % 6 >= 1) + (n_max % 6 >= 5)
    if _N.size < count:  # double, up to the 6668 n below numeric.eta_value's 20000-term cap
        i = np.arange(max(count, min(2 * _N.size, 6668)))
        _N, _CHI = 3 * i + 1 + (i & 1), np.where((i + 1) & 2, -1, 1)
        _Q = _N * _N // 24
    return _N[:count], _CHI[:count], _Q[:count]


# (m, ell, e) -> read-only (entries, values): the terms of a square series,
# n ascending, at the strand entries (m n^2 - m % 24) / 24, served by prefix
# and grown at least twofold, as the module docstring says
_TERMS_CACHE = {}


def _square_terms(m: int, length: int, modulus, lam: int = 0):
    """(entries, values) of the terms of sum (12|n) n^lam q^(m n^2 / 24) below strand entry length.

    They are the terms of the n with m n^2 < 24 length + m % 24: a prefix
    of the cached terms, whose size has _prime_to_6's closed form.
    """
    n_max = math.isqrt(max(24 * length + m % 24 - 1, 0) // m)
    count = 2 * (n_max // 6) + (n_max % 6 >= 1) + (n_max % 6 >= 5)
    if not count:  # nothing below length, and m may pass int64
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=_dtype(modulus))
    e = lam and (lam - 1) % (modulus - 1) + 1
    terms = _TERMS_CACHE.get((m, modulus, e))
    if terms is None or terms[0].size < count:
        if terms is not None:  # grow through the (i + 1)-th n prime to 6
            i = max(count, 2 * terms[0].size) - 1
            n_max = 3 * i + 1 + (i & 1)
        n, chi, q = _prime_to_6(n_max)
        values = chi * _pow_mod(_reduce(n, modulus), e, modulus) if e else chi
        # the entries (m n^2 - m % 24) / 24 are m q + m // 24: eta's are q itself
        terms = q if m == 1 else m * q + m // 24, _reduce(values, modulus)
        for a in terms:
            a.flags.writeable = False
        _TERMS_CACHE[m, modulus, e] = terms
    if terms[0].size == count:
        return terms
    return terms[0][:count], terms[1][:count]


def _square_strand(m: int, length: int, modulus, lam: int = 0) -> np.ndarray:
    """Strand of sum over n prime to 6 of (12|n) n^lam q^(m n^2 / 24): a fresh zeros strand and one scatter.

    m n^2 = m (mod 24) for every such n, so entry j is the coefficient at
    index m % 24 + 24 j; the cached terms below length are written into it.
    """
    out = np.zeros(length, dtype=_dtype(modulus))
    entries, values = _square_terms(m, length, modulus, lam)
    out[entries] = values
    return out


class QExp24:
    """Truncated expansion sum a(n) q^(n/24), stored as one strand.

    modulus is the prime ell >= 5 of F_ell; coefficients are stored
    reduced to [0, ell).  residue, required, is the class in [0, 24) that
    holds the support.

    values is a read-only numpy array: values[m] is the coefficient at
    index residue + 24 m below prec.  coeffs is the dense tuple a(0), ...,
    a(prec - 1), scattered from the strand and cached on first access.

    The public constructor, where outside data enters, takes the dense
    coefficient list coeffs (at most prec entries, zero past its end),
    reduces it mod ell and checks its support against the class;
    operations use _of instead.

    Equality compares ring, precision, and coefficients: a zero series
    equals the zero series of any class.
    """

    __slots__ = ("values", "prec", "modulus", "residue", "_coeffs")

    def __init__(self, coeffs, prec: int, modulus: int, residue: int):
        coeffs = list(coeffs)
        if prec < 1:
            raise ValueError("prec must be a positive integer")
        if len(coeffs) > prec:
            raise ValueError("coefficient list longer than declared prec")
        _validate_modulus(modulus)
        if not 0 <= residue < 24:
            raise ValueError("residue must lie in [0, 24)")
        # only the given prefix is scanned; the strand past it stays zero
        dense = np.array([int(c) % modulus for c in coeffs], dtype=_dtype(modulus))
        head = dense[residue::24]
        if np.count_nonzero(head) < np.count_nonzero(dense):  # counting is the cheap test
            support = dense.nonzero()[0]
            off = support[support % 24 != residue]
            raise ValueError(f"coefficient at index {off[0]} violates support class {residue} (mod 24)")
        values = np.zeros(_length(prec, residue), dtype=head.dtype)
        values[: head.size] = head
        values.flags.writeable = False
        self.values = values
        self.prec = prec
        self.modulus = modulus
        self.residue = residue
        self._coeffs = None

    # === constructors ===

    @classmethod
    def _of(cls, values: np.ndarray, prec: int, modulus, residue) -> "QExp24":
        """Trusted: values is reduced, in the storage dtype and _length(prec, residue) long."""
        values.setflags(write=False)
        f = object.__new__(cls)
        f.values, f.prec, f.modulus, f.residue, f._coeffs = values, prec, modulus, residue, None
        return f

    @classmethod
    def zero(cls, prec: int, modulus: int, residue: int) -> "QExp24":
        return cls((), prec, modulus, residue)

    @classmethod
    def one(cls, prec: int, modulus: int) -> "QExp24":
        return cls([1], prec, modulus, 0)

    @classmethod
    def from_dict(cls, terms: dict, prec: int, modulus: int, residue: int) -> "QExp24":
        """The series with the given {index: coefficient} terms, zero elsewhere.

        Each term is reduced and written straight into its strand slot, so
        the cost follows the terms, not prec.  The constructor's checks
        hold: PrecisionError for an index outside [0, prec), and a term
        nonzero mod ell off the class is refused at the least such index.
        """
        for n in terms:
            if not 0 <= n < prec:
                raise PrecisionError(f"index {n} outside [0, {prec})")
        values = cls.zero(prec, modulus, residue).values.copy()  # the constructor checks prec, ring and class
        off = []
        for n, v in terms.items():
            c = int(v) % modulus
            m, rest = divmod(n - residue, 24)
            if c and rest:
                off.append(n)
            elif c:
                values[m] = c
        if off:
            raise ValueError(f"coefficient at index {min(off)} violates support class {residue} (mod 24)")
        return cls._of(values, prec, modulus, residue)

    # === inspection ===

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient tuple, scattered from the strand on first access."""
        if self._coeffs is None:
            dense = np.zeros(self.prec, dtype=self.values.dtype)
            dense[self.residue :: 24] = self.values
            self._coeffs = tuple(dense.tolist())
        return self._coeffs

    def strand(self, residue: int) -> np.ndarray:
        """Coefficients at the indices residue + 24 m below prec: zeros off the series' class."""
        if residue == self.residue:
            return self.values
        return np.zeros(_length(self.prec, residue), dtype=self.values.dtype)

    def coeff(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative index")
        if n >= self.prec:
            raise PrecisionError(f"index {n} beyond precision {self.prec}")
        m, off = divmod(n - self.residue, 24)
        return 0 if off else int(self.values[m])

    def valuation(self) -> int:
        """Smallest index with a nonzero coefficient, or prec if none."""
        nz = self.values.nonzero()[0]
        return self.residue + 24 * int(nz[0]) if nz.size else self.prec

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.values)

    def support(self):
        return (self.residue + 24 * self.values.nonzero()[0]).tolist()

    def nonzero_items(self):
        nz = self.values.nonzero()[0]
        return list(zip((self.residue + 24 * nz).tolist(), self.values[nz].tolist()))

    def first_off_class(self, residue: int, depth: int | None = None):
        """First index below depth (default prec) with a nonzero coefficient outside residue mod 24."""
        if self.residue == residue:
            return None
        first = self.valuation()  # every nonzero coefficient is off the class
        return first if first < (self.prec if depth is None else depth) else None

    def __eq__(self, other):
        if not isinstance(other, QExp24):
            return NotImplemented
        if self.modulus != other.modulus or self.prec != other.prec:
            return False
        return self.first_difference(other, self.prec) is None

    __hash__ = None

    def __repr__(self):
        items = self.nonzero_items()
        head = ", ".join(f"{n}:{c}" for n, c in items[:4])
        tail = ", ..." if len(items) > 4 else ""
        return f"QExp24<F{self.modulus}, prec={self.prec}, residue={self.residue}>[{head}{tail}]"

    def first_difference(self, other: "QExp24", depth: int):
        """First index below depth where the two series disagree, else None."""
        self._same_ring(other)
        if depth > self.prec or depth > other.prec:
            raise PrecisionError("comparison depth exceeds available precision")
        if self.residue != other.residue:  # two classes agree only where both are zero
            first = min(self.valuation(), other.valuation())
            return first if first < depth else None
        n = _length(depth, self.residue)
        bad = (self.values[:n] != other.values[:n]).nonzero()[0]
        return self.residue + 24 * int(bad[0]) if bad.size else None

    # === ring operations ===

    def _same_ring(self, other):
        if not isinstance(other, QExp24):
            raise TypeError("expected a QExp24")
        if self.modulus != other.modulus:
            raise ValueError("ring mismatch between operands")

    def _addsub(self, other, op):
        self._same_ring(other)
        prec = min(self.prec, other.prec)
        residue = self.residue
        if other.residue != residue:  # a zero operand takes the other's class
            if self.is_zero():
                residue = other.residue
            elif not other.is_zero():
                raise ValueError(f"series on classes {self.residue} and {other.residue} (mod 24) have no sum")
        n = _length(prec, residue)
        out = op(self.strand(residue)[:n], other.strand(residue)[:n]) % self.modulus
        return QExp24._of(out, prec, self.modulus, residue)

    def __add__(self, other):
        return self._addsub(other, np.add)

    def __sub__(self, other):
        return self._addsub(other, np.subtract)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "QExp24":
        ell = self.modulus
        return QExp24._of(self.values * (int(c) % ell) % ell, self.prec, ell, self.residue)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._same_ring(other)
        vf, vg = self.valuation(), other.valuation()
        prec = min(self.prec + vg, other.prec + vf)
        # index rf + rg + 24 m of the product sits at strand entry m + 1
        # when rf + rg >= 24
        shift, residue = divmod(self.residue + other.residue, 24)
        n = _length(prec, residue)
        out = np.zeros(n, dtype=self.values.dtype)
        out[shift:] = _conv(self.values, other.values, self.modulus, max(n - shift, 0))
        return QExp24._of(out, prec, self.modulus, residue)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QExp24":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative powers are not defined for q-expansions")
        if e < 2:  # a series is immutable, so its first power is itself
            return self if e else QExp24.one(self.prec, self.modulus)
        # the precision, residue and shift of e - 1 products
        prec = self.prec + (e - 1) * self.valuation()
        shift, residue = divmod(self.residue * e, 24)
        n = _length(prec, residue)
        out = np.zeros(n, dtype=self.values.dtype)
        out[shift:] = _power(self.values, e, self.modulus, max(n - shift, 0))
        return QExp24._of(out, prec, self.modulus, residue)

    # === precision / ring management ===

    def truncate(self, prec: int) -> "QExp24":
        if prec == self.prec:  # a series is immutable, so its own truncation is itself
            return self
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        if prec < 1:
            raise ValueError("prec must be a positive integer")
        values = self.values[: _length(prec, self.residue)]
        if 2 * values.size < self.values.size:  # a short view would keep the long strand alive
            values = values.copy()
        return QExp24._of(values, prec, self.modulus, self.residue)


# === canonical series and operators ===


def _square_series(m: int, prec: int, modulus, lam: int = 0) -> QExp24:
    """sum over n prime to 6 of (12|n) n^lam q^(m n^2 / 24), residue class m mod 24."""
    _validate_modulus(modulus)
    values = _square_strand(m, _length(prec, m % 24), modulus, lam)
    return QExp24._of(values, prec, modulus, m % 24)


def eta_series(prec: int, modulus: int) -> QExp24:
    """q^(1/24) prod (1-q^n) in closed form: sum_{n>=1} (12|n) q^(n^2/24)."""
    if prec < 2:
        raise ValueError("prec must be at least 2 to see the leading term")
    return _square_series(1, prec, modulus)


def theta_op(f: QExp24, j: int = 1) -> QExp24:
    """(q d/dq)^j in 1/24-units: a(n) picks up the factor (n/24)^j mod ell, over the nonzero entries.

    theta^0 is f itself; otherwise only the nonzero entries' weights are
    raised to the j-th power, and scattered into one zeros strand.
    """
    if j < 0:
        raise ValueError(f"theta_op needs a power j >= 0, got {j}")
    if not j:
        return f
    ell = f.modulus
    nz = f.values.nonzero()[0]
    # entry m sits at index r0 + 24 m, whose weight (r0 + 24 m)/24 is m + r0/24 mod ell
    weight = (nz.astype(f.values.dtype, copy=False) + f.residue * pow(24, -1, ell)) % ell
    out = np.zeros(f.values.size, dtype=f.values.dtype)
    out[nz] = _pow_mod(weight, j, ell) * f.values[nz] % ell
    return QExp24._of(out, f.prec, ell, f.residue)


def u_op(f: QExp24, m: int) -> QExp24:
    """U_m: b(n) = a(m n), for m prime to 24.  Precision contracts to ceil(prec/m).

    For gcd(m, 24) > 1 the image leaves one class mod 24: ValueError.
    """
    if m < 1 or math.gcd(m, 24) > 1:
        raise ValueError(f"U_m needs m >= 1 prime to 24, got {m}")
    prec = -(-f.prec // m)
    residue = f.residue * pow(m, -1, 24) % 24
    # m (residue + 24 j) = f.residue (mod 24) sits at entry start + m j of f
    start = (m * residue - f.residue) // 24
    values = f.values[start::m][: _length(prec, residue)].copy()
    return QExp24._of(values, prec, f.modulus, residue)


def v_op(f: QExp24, m: int) -> QExp24:
    """V_m: b(m n) = a(n), all other coefficients 0.  Precision grows to m*prec."""
    if m < 1:
        raise ValueError("V_m needs m >= 1")
    prec = m * f.prec
    residue = m * f.residue % 24
    out = np.zeros(_length(prec, residue), dtype=f.values.dtype)
    # m (f.residue + 24 k) sits at entry start + m k of the output strand
    start = (m * f.residue - residue) // 24
    out[start : start + m * f.values.size : m] = f.values
    return QExp24._of(out, prec, f.modulus, residue)


def support_square_classes(f: QExp24) -> dict:
    """Group the nonzero support by squarefree part: {t: [indices]}; index 0 is the class t = 0."""
    ell = f.modulus
    classes: dict = {}
    for n in f.support():  # squares, then ell (prime) times squares; only the rest is factored
        if n == 0:  # 0 has no squarefree part
            t = 0
        elif math.isqrt(n) ** 2 == n:
            t = 1
        elif n % ell == 0 and math.isqrt(n // ell) ** 2 == n // ell:
            t = ell
        else:
            t = squarefree_part(n)
        classes.setdefault(t, []).append(n)
    return classes


# === text serialization ===

# series_from_text's largest prec.  Reading writes each term into one strand
# of prec / 24 entries, so a file costs its terms plus 1/3 byte per unit of
# prec (int64 storage).  The budget bounds time, not memory: the full-depth
# check multiplies by eta's sparse terms, but builds its weight's basis to
# prec / 24 entries with quadratic products.  At 10^6 over F_13 (2 cores),
# 3 eta takes 0.01 s, and eta^25, whose basis needs E4, E6 and
# Delta / E4^3, 8.2 s cold and 0.31 s with the basis cached.
SERIES_MAX_PREC = 10**7


def series_to_text(f: QExp24, extra: dict | None = None) -> str:
    """Delimited text form: a header line then one 'n c' line per nonzero index.

    Absent indices are zero.  extra key=value pairs are appended to the
    header (used by basis dumps for weight/kind/index).
    """
    header = f"# ring=Fp:{f.modulus} prec={f.prec} residue={f.residue}"
    if extra:
        header += "".join(f" {k}={v}" for k, v in extra.items())
    lines = [header]
    lines.extend(f"{n} {c}" for n, c in f.nonzero_items())
    return "\n".join(lines) + "\n"


def series_from_text(text: str, ell: int) -> QExp24:
    """The series of series_to_text's form, over F_ell.

    A ring=Z file is reduced mod ell; a ring=Fp:p file needs p = ell.
    The header names one class, residue=r0 with 0 <= r0 < 24, and a prec
    of at most SERIES_MAX_PREC, checked before any coefficient is stored.
    """
    header = None
    terms = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            if header is None:
                header = line
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"malformed series line: {raw!r}")
        n, c = int(parts[0]), int(parts[1])
        if n in terms:
            raise ValueError(f"series index {n} appears on more than one line")
        terms[n] = c
    if header is None:
        raise ValueError("missing series header line")
    fields = dict(
        item.split("=", 1) for item in header.lstrip("#").split() if "=" in item
    )
    try:
        ring = fields["ring"]
        prec = int(fields["prec"])
        residue_s = fields["residue"]
    except KeyError as exc:
        raise ValueError(f"series header missing {exc} field") from exc
    if prec > SERIES_MAX_PREC:
        raise ValueError(f"series prec {prec} exceeds the budget SERIES_MAX_PREC = {SERIES_MAX_PREC}")
    if residue_s == "none":
        raise ValueError("series header residue=none: a series lives on one class, residue=0..23")
    if ring != "Z":
        if not ring.startswith("Fp:"):
            raise ValueError(f"unknown ring tag {ring!r}")
        if int(ring[3:]) != ell:
            raise ValueError(f"series ring {ring} disagrees with ell {ell}")
    return QExp24.from_dict(terms, prec, ell, int(residue_s))
