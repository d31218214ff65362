"""Exact truncated q-expansions indexed in 1/24-integral powers.

A series is sum_{0 <= n < prec} a(n) q^(n/24) with exact coefficients:
arbitrary-precision integers, or elements of F_ell for a prime ell >= 5.
An optional residue class r0 records the support claim
a(n) != 0  =>  n = r0 (mod 24).  Integer-exponent forms are the special
case r0 = 0.

Storage is one numpy strand per series.  With the residue tag set, entry
m of ``values`` is the coefficient at index r0 + 24 m; without it, entry
m is the coefficient at index m.  Coefficients off the tagged class have
no slot, so the support claim holds by construction: a dense coefficient
list given to the constructor is checked once, and every operation
computes its output strand directly from its input strands.  Residues
mod ell are stored as int64 when a product of two fits, ell <= 3037000493;
integer series and larger ell use object arrays of Python integers.  The
dense tuple ``coeffs`` is built only on first access.

All values are immutable after construction; every operation returns a
new series.  Precision bookkeeping is pessimistic and certified: an
operation's output precision is the largest P such that all indices
n < P of the true result are determined by the known prefixes of the
inputs.

This module's kernel section is the only code that knows int64 limits.
With that storage rule, an elementwise product of residues reduced mod
ell is exact in the storage dtype.  Only sums of products can overflow,
and only ``_conv`` and ``_dot`` form them: each widens its operands to
Python integers when its sums could pass 2^63.
"""

from __future__ import annotations

import math
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
    "twist",
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


@lru_cache(maxsize=None)
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


def _validate_modulus(modulus):
    if modulus is not None and (modulus < 5 or not is_prime(modulus)):
        raise ValueError(f"modulus must be a prime >= 5, got {modulus}")


# === exact kernels on strands ===

# Residues lie in [0, ell), so a sum of n products of two residues stays
# below n * (ell - 1)^2; int64 numpy is exact while that is below this.
_INT64_BOUND = 2**63


def _dtype(ell):
    """int64 for F_ell when a product of residues fits, (ell - 1)^2 < 2^63; else Python integers."""
    return np.int64 if ell is not None and (ell - 1) ** 2 < _INT64_BOUND else object


def _exact(a: np.ndarray, b: np.ndarray, n: int, ell) -> tuple:
    """a and b, as Python integers when a sum of n products mod ell can overflow int64."""
    if ell is not None and n * (ell - 1) ** 2 >= _INT64_BOUND:
        return a.astype(object, copy=False), b.astype(object, copy=False)
    return a, b


def _reduce(a: np.ndarray, ell) -> np.ndarray:
    """a mod ell in the ring's storage dtype; over Z, a as Python integers."""
    dtype = _dtype(ell)
    if dtype is object:  # widen first: an int64 array cannot take % ell past 2^63
        a = a.astype(object, copy=False)
    return (a if ell is None else a % ell).astype(dtype, copy=False)


def _conv(a: np.ndarray, b: np.ndarray, ell, length: int) -> np.ndarray:
    """(a * b mod ell) truncated or zero-padded to length; exact over Z for ell None."""
    a, b = a[:length], b[:length]
    n = min(a.size, b.size)
    out = np.zeros(length, dtype=_dtype(ell))
    if n:
        c = np.convolve(*_exact(a, b, n, ell))[:length]
        out[: c.size] = _reduce(c, ell)
    return out


def _dot(a: np.ndarray, b: np.ndarray, ell: int) -> np.ndarray:
    """a @ b mod ell for a matrix b, in the ring's storage dtype, widened by the inner dimension."""
    return _reduce(np.matmul(*_exact(a, b, b.shape[0], ell)), ell)


def _one(ell, length: int) -> np.ndarray:
    one = np.zeros(length, dtype=_dtype(ell))
    one[:1] = 1
    return one


def _power(a: np.ndarray, e: int, ell, length: int) -> np.ndarray:
    """a^e mod ell truncated or zero-padded to length, by repeated squaring.

    Over F_ell, a^(ell h + d) = a^d a(x^ell)^h (c^ell = c, and an ell-th power
    has no cross terms): a^h is spread to every ell-th slot.
    """
    if ell is not None and e >= ell:
        h, d = divmod(e, ell)
        frobenius = np.zeros(length, dtype=_dtype(ell))
        frobenius[::ell] = _power(a, h, ell, -(-length // ell))
        return _conv(frobenius, _power(a, d, ell, length), ell, length) if d else frobenius
    if e < 2:  # a^1 is a itself, fitted to length in one pass, not a product with 1
        return _conv(a, _one(ell, 1), ell, length) if e else _one(ell, length)
    square = _power(_conv(a, a, ell, length), e // 2, ell, length)
    return _conv(square, a, ell, length) if e % 2 else square


def _inverse(a: np.ndarray, ell: int, length: int) -> np.ndarray:
    """1/a mod ell truncated to length, for a[0] == 1, by Newton iteration.

    inv -> inv * (2 - a * inv) doubles the number of correct terms.
    """
    inv = _one(ell, 1)
    n = 1
    while n < length:
        n = min(2 * n, length)
        step = -_conv(a, inv, ell, n) % ell
        step[0] = (step[0] + 2) % ell
        inv = _conv(inv, step, ell, n)
    return inv


def _lattice(residue) -> tuple:
    """(offset, step): entry m of a strand is the coefficient at offset + step m."""
    return (0, 1) if residue is None else (residue, 24)


def _length(prec: int, residue) -> int:
    """Number of strand entries below prec."""
    offset, step = _lattice(residue)
    return len(range(offset, prec, step))


def _claim(dense: np.ndarray, residue) -> np.ndarray:
    """The strand of a dense array for the class residue.

    ValueError names the first index off the class with a nonzero
    coefficient.
    """
    if residue is None:
        return dense
    support = np.flatnonzero(dense)
    off = support[support % 24 != residue]
    if off.size:
        raise ValueError(
            f"coefficient at index {off[0]} violates support class {residue} (mod 24)"
        )
    return dense[residue::24].copy()


def _legendre(n: np.ndarray, p: int) -> np.ndarray:
    """(n|p) for an array of nonnegative integers n, from a table over n mod p."""
    size = min(p, int(n.max()) + 1) if n.size else 0
    table = np.array([kronecker(j, p) for j in range(size)], dtype=np.int64)
    return table[n % p if size == p else n]


def _square_strand(m: int, length: int, modulus, lam: int = 0) -> np.ndarray:
    """Strand of sum over n prime to 6 of (12|n) n^lam q^(m n^2 / 24).

    m n^2 = m (mod 24) for every such n, so entry j is the coefficient at
    index m % 24 + 24 j; entries j < length are filled.
    """
    out = np.zeros(length, dtype=_dtype(modulus))
    r = m % 24
    n = 1
    while (m * n * n - r) // 24 < length:
        c = kronecker(12, n) * pow(n, lam, modulus)
        out[(m * n * n - r) // 24] = c if modulus is None else c % modulus
        n += 4 if n % 6 == 1 else 2  # n runs over 1, 5, 7, 11, ... (prime to 6)
    return out


class QExp24:
    """Truncated expansion sum a(n) q^(n/24), stored as one strand.

    modulus is None for integer coefficients or a prime ell >= 5 for
    F_ell (stored reduced to [0, ell)).  residue, when set, asserts the
    support lies in the class residue (mod 24).

    values is a read-only numpy array: values[m] is the coefficient at
    index offset + step m below prec, with (offset, step) = (residue, 24)
    when the residue tag is set and (0, 1) otherwise.  coeffs is the
    dense tuple a(0), ..., a(prec - 1), built and cached on first access.

    The constructor takes either the dense coefficient list coeffs,
    whose support is checked against the residue claim, or the strand
    itself as values= (exactly one entry per index of the lattice below
    prec), which is taken over and made read-only.  Both are reduced
    into the ring.

    Equality compares ring, precision, and coefficients; the residue
    tag is a support claim, not part of the value.
    """

    __slots__ = ("values", "prec", "modulus", "residue", "_coeffs")

    def __init__(self, coeffs=(), prec=None, modulus=None, residue=None, *, values=None):
        coeffs = list(coeffs)
        if values is not None and (coeffs or prec is None):
            raise ValueError("a strand of values needs prec and no dense coefficients")
        if prec is None:
            prec = len(coeffs)
        if prec < 1:
            raise ValueError("prec must be a positive integer")
        if len(coeffs) > prec:
            raise ValueError("coefficient list longer than declared prec")
        _validate_modulus(modulus)
        if modulus is not None:
            coeffs = [int(c) % modulus for c in coeffs]
        else:
            coeffs = [int(c) for c in coeffs]
        if residue is not None and not 0 <= residue < 24:
            raise ValueError("residue must lie in [0, 24)")
        if values is None:
            dense = np.zeros(prec, dtype=_dtype(modulus))
            dense[: len(coeffs)] = coeffs
            values = _claim(dense, residue)
        elif np.shape(values) != (_length(prec, residue),):
            raise ValueError(f"strand of shape {np.shape(values)} does not fit prec {prec}")
        else:
            values = _reduce(np.asarray(values), modulus)
        values.flags.writeable = False
        self.values = values
        self.prec = prec
        self.modulus = modulus
        self.residue = residue
        self._coeffs = None

    # === constructors ===

    @classmethod
    def zero(cls, prec: int, modulus=None, residue=None) -> "QExp24":
        return cls([], prec, modulus, residue)

    @classmethod
    def one(cls, prec: int, modulus=None) -> "QExp24":
        return cls([1], prec, modulus, residue=0)

    @classmethod
    def from_dict(cls, terms: dict, prec: int, modulus=None, residue=None) -> "QExp24":
        c = [0] * prec
        for n, v in terms.items():
            if not 0 <= n < prec:
                raise PrecisionError(f"index {n} outside [0, {prec})")
            c[n] = v
        return cls(c, prec, modulus, residue)

    # === inspection ===

    @property
    def offset(self) -> int:
        return _lattice(self.residue)[0]

    @property
    def step(self) -> int:
        return _lattice(self.residue)[1]

    def indices(self) -> np.ndarray:
        """The index of every strand entry: offset + step m."""
        return self.offset + self.step * np.arange(self.values.size)

    @property
    def coeffs(self) -> tuple:
        """The dense coefficient tuple, built on first access."""
        if self._coeffs is None:
            self._coeffs = tuple(self.strand(None).tolist())
        return self._coeffs

    def strand(self, residue) -> np.ndarray:
        """Coefficients at the indices residue + 24 m below prec; all of them for None."""
        if residue == self.residue:
            return self.values
        if self.residue is None:
            return self.values[residue::24]
        out = np.zeros(_length(self.prec, residue), dtype=self.values.dtype)
        if residue is None:
            out[self.residue :: 24] = self.values
        return out

    def coeff(self, n: int) -> int:
        if n < 0:
            raise ValueError("negative index")
        if n >= self.prec:
            raise PrecisionError(f"index {n} beyond precision {self.prec}")
        m, off = divmod(n - self.offset, self.step)
        return 0 if off else int(self.values[m])

    __getitem__ = coeff

    def valuation(self) -> int:
        """Smallest index with a nonzero coefficient, or prec if none."""
        nz = np.flatnonzero(self.values)
        return self.offset + self.step * int(nz[0]) if nz.size else self.prec

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.values)

    def support(self):
        return (self.offset + self.step * np.flatnonzero(self.values)).tolist()

    def nonzero_items(self):
        nz = np.flatnonzero(self.values)
        return list(zip((self.offset + self.step * nz).tolist(), self.values[nz].tolist()))

    def first_off_class(self, residue: int, depth: int | None = None):
        """First index below depth (default prec) with a nonzero coefficient outside residue mod 24."""
        if self.residue == residue:
            return None
        support = self.offset + self.step * np.flatnonzero(self.values)
        off = support[support % 24 != residue]
        if off.size and (depth is None or off[0] < depth):
            return int(off[0])
        return None

    def __eq__(self, other):
        if not isinstance(other, QExp24):
            return NotImplemented
        if self.modulus != other.modulus or self.prec != other.prec:
            return False
        return self.first_difference(other, self.prec) is None

    __hash__ = None

    def __repr__(self):
        ring = "Z" if self.modulus is None else f"F{self.modulus}"
        items = self.nonzero_items()
        head = ", ".join(f"{n}:{c}" for n, c in items[:4])
        tail = ", ..." if len(items) > 4 else ""
        return f"QExp24<{ring}, prec={self.prec}, residue={self.residue}>[{head}{tail}]"

    def first_difference(self, other: "QExp24", depth: int):
        """First index below depth where the two series disagree, else None."""
        self._same_ring(other)
        if depth > self.prec or depth > other.prec:
            raise PrecisionError("comparison depth exceeds available precision")
        residue = self.residue if self.residue == other.residue else None
        n = _length(depth, residue)
        bad = np.flatnonzero(self.strand(residue)[:n] != other.strand(residue)[:n])
        offset, step = _lattice(residue)
        return offset + step * int(bad[0]) if bad.size else None

    def agrees_with(self, other: "QExp24", depth: int) -> bool:
        return self.first_difference(other, depth) is None

    # === ring operations ===

    def _same_ring(self, other):
        if not isinstance(other, QExp24):
            raise TypeError("expected a QExp24")
        if self.modulus != other.modulus:
            raise ValueError("ring mismatch between operands")

    def _addsub(self, other, sign):
        self._same_ring(other)
        prec = min(self.prec, other.prec)
        if self.residue == other.residue:
            residue = self.residue
        elif self.is_zero():
            residue = other.residue
        elif other.is_zero():
            residue = self.residue
        else:
            residue = None
        ell = self.modulus
        n = _length(prec, residue)
        a, b = self.strand(residue)[:n], other.strand(residue)[:n]
        return QExp24(values=a + sign * b, prec=prec, modulus=ell, residue=residue)

    def __add__(self, other):
        return self._addsub(other, 1)

    def __sub__(self, other):
        return self._addsub(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "QExp24":
        ell = self.modulus
        c = int(c) if ell is None else int(c) % ell
        out = self.values * c
        return QExp24(values=out, prec=self.prec, modulus=ell, residue=self.residue)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._same_ring(other)
        vf, vg = self.valuation(), other.valuation()
        prec = min(self.prec + vg, other.prec + vf)
        if self.residue is not None and other.residue is not None:
            # index rf + rg + 24 m of the product sits at strand entry
            # m + 1 when rf + rg >= 24
            base = self.residue + other.residue
            residue, shift = base % 24, base // 24
            a, b = self.values, other.values
        else:
            residue, shift = None, 0
            a, b = self.strand(None), other.strand(None)
        n = _length(prec, residue)
        out = np.zeros(n, dtype=self.values.dtype)
        out[shift:] = _conv(a, b, self.modulus, max(n - shift, 0))
        return QExp24(values=out, prec=prec, modulus=self.modulus, residue=residue)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "QExp24":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative powers are not defined for q-expansions")
        if e == 0:
            return QExp24.one(self.prec, self.modulus)
        # the precision, residue and shift of e - 1 products
        prec = self.prec + (e - 1) * self.valuation()
        residue, shift = None, 0
        if self.residue is not None:
            shift, residue = divmod(self.residue * e, 24)
        n = _length(prec, residue)
        out = np.zeros(n, dtype=self.values.dtype)
        out[shift:] = _power(self.values, e, self.modulus, max(n - shift, 0))
        return QExp24(values=out, prec=prec, modulus=self.modulus, residue=residue)

    # === precision / ring management ===

    def truncate(self, prec: int) -> "QExp24":
        if prec > self.prec:
            raise PrecisionError("cannot extend precision by truncation")
        values = self.values[: _length(prec, self.residue)]
        return QExp24(values=values, prec=prec, modulus=self.modulus, residue=self.residue)

    def reduce_mod(self, ell: int) -> "QExp24":
        """Reduction map Z[[q^(1/24)]] -> F_ell[[q^(1/24)]]."""
        if self.modulus is not None:
            raise ValueError("series already has prime-field coefficients")
        return QExp24(values=self.values, prec=self.prec, modulus=ell, residue=self.residue)

    def with_residue(self, residue) -> "QExp24":
        """Attach (and validate) a support-class claim; None drops the claim."""
        if residue is not None and not 0 <= residue < 24:
            raise ValueError("residue must lie in [0, 24)")
        values = _claim(self.strand(None), residue)
        return QExp24(values=values, prec=self.prec, modulus=self.modulus, residue=residue)


# === canonical series and operators ===


def _square_series(m: int, prec: int, modulus, lam: int = 0) -> QExp24:
    """sum over n prime to 6 of (12|n) n^lam q^(m n^2 / 24), residue class m mod 24."""
    _validate_modulus(modulus)
    values = _square_strand(m, _length(prec, m % 24), modulus, lam)
    return QExp24(values=values, prec=prec, modulus=modulus, residue=m % 24)


def eta_series(prec: int, modulus=None) -> QExp24:
    """q^(1/24) prod (1-q^n) in closed form: sum_{n>=1} (12|n) q^(n^2/24)."""
    if prec < 2:
        raise ValueError("prec must be at least 2 to see the leading term")
    return _square_series(1, prec, modulus)


def theta_op(f: QExp24) -> QExp24:
    """q d/dq in 1/24-units: a(n) picks up the factor n/24 mod ell."""
    if f.modulus is None:
        raise ValueError("theta_op needs prime-field coefficients")
    ell = f.modulus
    inv24 = pow(24, -1, ell)
    weight = f.indices().astype(f.values.dtype, copy=False) % ell * inv24 % ell
    out = weight * f.values
    return QExp24(values=out, prec=f.prec, modulus=ell, residue=f.residue)


def u_op(f: QExp24, m: int) -> QExp24:
    """U_m: b(n) = a(m n).  Precision contracts to ceil(prec/m)."""
    if m < 1:
        raise ValueError("U_m needs m >= 1")
    prec = -(-f.prec // m)
    if f.residue is not None and math.gcd(m, 24) == 1:
        residue = f.residue * pow(m, -1, 24) % 24
        # m (residue + 24 j) = f.residue (mod 24) sits at entry start + m j of f
        start = (m * residue - f.residue) // 24
        values = f.values[start::m][: _length(prec, residue)].copy()
    else:
        residue = None
        values = f.strand(None)[::m].copy()
    return QExp24(values=values, prec=prec, modulus=f.modulus, residue=residue)


def v_op(f: QExp24, m: int) -> QExp24:
    """V_m: b(m n) = a(n), all other coefficients 0.  Precision grows to m*prec."""
    if m < 1:
        raise ValueError("V_m needs m >= 1")
    prec = m * f.prec
    residue = None if f.residue is None else (m * f.residue) % 24
    out = np.zeros(_length(prec, residue), dtype=f.values.dtype)
    # m (offset + step k) sits at entry start + m k of the output strand
    start = (m * f.offset - _lattice(residue)[0]) // f.step
    out[start : start + m * f.values.size : m] = f.values
    return QExp24(values=out, prec=prec, modulus=f.modulus, residue=residue)


def twist(f: QExp24, p: int, kind: str = "quadratic") -> QExp24:
    """Twist by the quadratic character mod p, or by the trivial character.

    quadratic: a(n) -> (n|p) a(n);  trivial: kills the coefficients with
    p | n and keeps the rest.  The support class is unchanged (p^2 = 1
    mod 24 for p >= 5, so twisting never moves a square class out of a
    residue class either).
    """
    if p in (2, 3) or p < 2 or not is_prime(p):
        raise ValueError(f"twist needs a prime p >= 5, got {p}")
    n = f.indices()
    if kind == "quadratic":
        chi = _legendre(n, p)
    elif kind == "trivial":
        # p divides no index 0 < n < prec when p >= prec
        chi = np.where((n % p if p < f.prec else n) != 0, 1, 0)
    else:
        raise ValueError(f"unknown twist kind {kind!r}")
    out = f.values * chi.astype(f.values.dtype)
    return QExp24(values=out, prec=f.prec, modulus=f.modulus, residue=f.residue)


def support_square_classes(f: QExp24) -> dict:
    """Group the nonzero support by squarefree part: {t: [indices]}."""
    classes: dict = {}
    for n in f.support():
        classes.setdefault(squarefree_part(n), []).append(n)
    return classes


# === text serialization ===


def series_to_text(f: QExp24, extra: dict | None = None) -> str:
    """Delimited text form: a header line then one 'n c' line per nonzero index.

    Absent indices are zero.  extra key=value pairs are appended to the
    header (used by basis dumps for weight/kind/index).
    """
    ring = "Z" if f.modulus is None else f"Fp:{f.modulus}"
    residue = "none" if f.residue is None else str(f.residue)
    header = f"# ring={ring} prec={f.prec} residue={residue}"
    if extra:
        header += "".join(f" {k}={v}" for k, v in extra.items())
    lines = [header]
    lines.extend(f"{n} {c}" for n, c in f.nonzero_items())
    return "\n".join(lines) + "\n"


def series_from_text(text: str) -> QExp24:
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
    if ring == "Z":
        modulus = None
    elif ring.startswith("Fp:"):
        modulus = int(ring[3:])
    else:
        raise ValueError(f"unknown ring tag {ring!r}")
    residue = None if residue_s == "none" else int(residue_s)
    return QExp24.from_dict(terms, prec, modulus, residue)
