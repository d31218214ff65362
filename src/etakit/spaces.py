"""Level-one form spaces mod ell: echelon bases, membership, filtration.

Weight-k forms of level one are spanned by monomials Delta^j E4^a E6^b.
Their reduced echelon form mod ell is the Miller basis, the only family
of bases: pivot j at integer exponent j, for j < dm = dim M_k.

The Miller rows come from one product.  Take b in {0, 1} by k mod 4,
a = (k - 6b)/4, row0 = E4^a E6^b and t = Delta / E4^3 = q + O(q^2).
The rows S_j = t^j row0 = Delta^j E4^(a - 3j) E6^b, j < dm, are forms
of weight k, and S_j starts at q^j, so they are independent and span
M_k.  Write C(x) for the dm x dm upper-triangular Toeplitz matrix
C(x)[i, j] = x[j - i] of multiplication by x mod q^dm, and P for the
dm x dm matrix of the t^j mod q^dm.  The leading dm columns of S are
P C(row0), and C(row0)^-1 = C(w) with w = 1 / row0 mod q^dm.  So
R = (C(w) P^-1) S has the identity in its leading dm columns and spans
M_k.  The reduced echelon basis with pivots 0 .. dm - 1 is unique, so R
is the Miller basis, bit for bit whatever route computes it.

One cache per ell holds what every weight shares: E4 and E6 from one
divisor-sum sieve, t and Delta, the squares E4^(2^i) (so E4^a costs
popcount(a) - 1 products), the powers t^j for j < D, and P^-1 for the
D x D block of those powers.  P is unit upper triangular, so the
leading dm x dm block of P^-1 is the inverse of P's: one P^-1 serves
every dm <= D.  Each table is built when a basis first reads it, and a
space of dimension 1 reads E4 and E6 only.  A length past the tables'
resieves at least twice as long and rebuilds the strands, squares and
powers from it; P^-1 depends on no length and stays.  A dimension past
D grows D at least twofold, within the table length, and inverts the
new P once.  Once the tables cover a basis, it costs the products that
form row0, one inverse of dm terms and three matrix products, written
into one preallocated output whose identity block is set in place.

Spaces of half-integral weight lam + 1/2 with the r-th power of the eta
multiplier are realized as eta^r0 * M_w with r0 = r mod 24 and
w = lam + (1 - r0)/2; weight k is r0 = 0.  One verifier decides every
membership: it reads coordinates off f's pivots and compares the rest
below the depth its caller chooses.  It divides by eta^r0 only over the
pivots, to read the quotient's coordinates, and compares f with eta^r0
times their combination of rows: r0 passes of eta's cached sparse terms,
about sqrt(24 n) / 3 of them on n strand entries, not a full inverse.
At the Sturm depth of a half-integral space it builds no basis: the
pivots fill the strand, but for one coefficient at w = 2 (mod 12) that
the constant term of a weight-2 quotient decides.  Its compare, _misses,
is all that coordinates and each candidate of the filtration scan run:
at r0 = 0 against a warm basis it is one _dot and one array compare,
and the scan builds no certificate per candidate.

Every basis is held as a read-only (dim x L) matrix of integer-exponent
coefficients: row i, column m is the coefficient of element i at q^m.
The dense series (``elements``) are expanded only on first access.  Two
flat process-wide dicts hold them: _ROW_CACHE maps (k, ell) to the rows
of M_k, the longest matrix built, and _BASIS_CACHE maps (k, ell, prec,
kind) to the basis served from it: S_k as its rows 1.., a shorter
precision as a prefix, which equals a cold build because truncation
commutes with the products.  miller_basis reads _BASIS_CACHE before it
checks any argument, so a repeated call returns the same object for
one dict lookup.  Empty spaces are not cached.  The
caches are not locked: they belong to one thread of one process.

Residues are stored in qseries' storage dtype, and every sum of
products goes through qseries' ``_conv``, ``_conv_rows`` or ``_dot``,
which decide alone when int64 would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qseries import (
    QExp24,
    PrecisionError,
    _conv,
    _conv_rows,
    _dot,
    _inverse,
    _one,
    _power,
    _reduce,
    _sparse_conv,
    _square_strand,
    _square_terms,
    _toeplitz,
    _validate_modulus,
)

__all__ = [
    "CertificationError",
    "dims",
    "SpaceBasis",
    "miller_basis",
    "MembershipCertificate",
    "NotMember",
    "coordinates",
    "filtration",
    "membership_depth",
    "eta_membership",
]


class CertificationError(RuntimeError):
    """A certified-to-exist object failed to materialize at full depth."""


def dims(k: int) -> tuple:
    """(dim M_k, dim S_k) at level one."""
    if k < 0 or k % 2:
        return (0, 0)
    dm = k // 12 if k % 12 == 2 else k // 12 + 1
    ds = dm - 1 if k >= 4 else 0
    return (dm, ds)


def _e4_e6(n: int) -> tuple:
    """Integer coefficients of E4 and E6 at q^0 .. q^(n-1), from one divisor-sum sieve."""
    s3, s5 = [0] * n, [0] * n
    for d in range(1, n):
        d3 = d**3
        d5 = d3 * d * d
        for m in range(d, n, d):
            s3[m] += d3
            s5[m] += d5
    return [1] + [240 * s for s in s3[1:]], [1] + [-504 * s for s in s5[1:]]


# === per-ell tables and the Miller rows ===

# ell -> [E4, E6, t, Delta, [E4^(2^i)], T, P^-1]: the rows of T are t^j
# for j < D, and P^-1 inverts the leading D x D block of T.  The strands,
# the squares and T share one length; P^-1 does not depend on it.
_GENERATOR_CACHE = {}


def _grown(size: int, need: int) -> int:
    """The size a table grows to when need passes size: at least double."""
    return max(need, 2 * size)


def _tables(ell: int, length: int, dm: int = 1) -> list:
    """The per-ell cache, holding what a basis of dimension dm at length reads.

    dm = 1 reads E4 and E6 only; dm > 1 also t, Delta, T and P^-1, with
    D >= dm.  Delta = (E4^3 - E6^2) / 1728 comes from the E4^3 that
    t = Delta / E4^3 needs anyway.  The tables grow as the module
    docstring says.  t^j = q^j (t / q)^j is multiplied from q^j on only,
    and t^1 = t needs no product.  A request the tables already cover, as
    nearly every request of a warm process is, returns after one lookup
    and three comparisons.
    """
    cache = _GENERATOR_CACHE.get(ell)
    if cache is not None and cache[0].size >= length and (dm == 1 or len(cache[5]) >= dm):
        return cache  # covered: the powers are rebuilt with t after every resieve
    empty = np.zeros(0, dtype=np.int64)
    if cache is None:
        cache = _GENERATOR_CACHE[ell] = [empty] * 4 + [[], np.zeros((0, 0)), np.zeros((0, 0))]
    if cache[0].size < length:
        e4, e6 = (_reduce(np.array(c, dtype=object), ell) for c in _e4_e6(_grown(cache[0].size, length)))
        cache[:6] = e4, e6, empty, empty, [e4], np.zeros((0, 0))
    if dm == 1:
        return cache
    e4, e6, t, _, _, powers, inverse = cache
    size = e4.size
    if t.size < size:
        e4cube = _conv(_conv(e4, e4, ell, size), e4, ell, size)
        delta = (e4cube - _conv(e6, e6, ell, size)) * pow(1728, -1, ell) % ell
        t = _conv(delta, _inverse(e4cube, ell, size), ell, size)
        cache[2:4] = t, delta
    d = len(inverse) if dm <= len(inverse) else min(_grown(len(inverse), dm), size)
    if len(powers) < d:
        rows = list(powers) or [_one(ell, size), t]
        while len(rows) < d:
            j = len(rows)
            rows.append(np.zeros_like(t))
            rows[j][j:] = _conv(rows[j - 1][j - 1 :], t[1:], ell, size - j)
        cache[5] = powers = np.array(rows)
    if len(inverse) < d:
        cache[6] = _unit_triangular_inverse(powers[:, :d], ell)
    return cache


def _unit_triangular_inverse(p: np.ndarray, ell: int) -> np.ndarray:
    """Inverse mod ell of a unit upper-triangular matrix, by back-substitution from the last row."""
    x = _reduce(np.eye(len(p), dtype=np.int64), ell)
    for i in range(len(p) - 2, -1, -1):
        x[i, i + 1 :] = -_dot(p[i, i + 1 :], x[i + 1 :, i + 1 :], ell) % ell
    return x


def _miller_rows(k: int, ell: int, length: int) -> np.ndarray:
    """The reduced echelon rows of M_k mod ell at integer exponents 0 .. length - 1.

    R = (C(w) P^-1) S, as the module docstring shows.  row0 = E4^a E6^b
    is the product of E6^b and the squares E4^(2^i) over the bits of a:
    popcount(a) - 1 + b products.  b is 0 or 1 by k mod 4, which makes
    a = (k - 6b)/4 integral.  The leading dm columns of R are the
    identity, written in place into the one output array; past them, S
    is each power t^j times row0, one product with the Toeplitz view of
    row0, which holds 2 length - 1 entries and not length^2.  M_0 is the
    constants and reads no table.
    """
    if k == 0:
        return _reduce(np.eye(1, length, dtype=np.int64), ell)
    dm = dims(k)[0]
    cache = _tables(ell, length, dm)
    b = k % 4 // 2
    a = (k - 6 * b) // 4
    squares = cache[4]
    while len(squares) < a.bit_length():
        squares.append(_conv(squares[-1], squares[-1], ell, squares[-1].size))
    factors = [squares[i] for i in range(a.bit_length()) if a >> i & 1] + [cache[1]] * b
    row0 = factors[0][:length]
    for factor in factors[1:]:
        row0 = _conv(row0, factor, ell, length)
    if dm == 1:
        return row0[None]
    s = _conv_rows(cache[5][:dm, :length], row0, ell, dm)
    m = _dot(_toeplitz(_inverse(row0, ell, dm), dm), cache[6][:dm, :dm], ell)
    out = np.zeros((dm, length), dtype=s.dtype)
    out.flat[:: length + 1] = 1  # the identity in the leading dm columns
    out[:, dm:] = _dot(m, s, ell)
    return out


# (k, ell) -> the longest reduced rows of M_k built so far, read-only
_ROW_CACHE = {}
# (k, ell, prec, kind) -> the basis served from a prefix of those rows
_BASIS_CACHE = {}


@dataclass(frozen=True, eq=False)
class SpaceBasis:
    """Reduced echelon basis of M_k or S_k over F_ell.

    rows is the read-only (dim x ceil(prec/24)) matrix of coefficients at
    integer exponents.  Element i has coefficient 1 at integer exponent
    pivots[i] and 0 at every other pivot.  kind is "M" (full) or "S"
    (cuspidal).
    """

    k: int
    kind: str
    ell: int
    prec: int
    rows: np.ndarray
    pivots: tuple

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @cached_property
    def elements(self) -> tuple:
        """The basis as series, built on first access."""
        return tuple(QExp24._of(row, self.prec, self.ell, 0) for row in self.rows)


def miller_basis(k: int, ell: int, prec: int, kind: str = "M") -> SpaceBasis:
    """Reduced echelon basis of the weight-k space mod ell.

    The rows of M_k come from _miller_rows.  S_k is rows 1.. of the
    reduced M_k: a row with zero constant term is a cusp form.
    _BASIS_CACHE is read first, before any argument is checked: only a
    valid call stores a basis, so a repeated call is one dict lookup.
    Otherwise the basis is a view of _ROW_CACHE[(k, ell)], the longest
    reduced M_k built so far, rebuilt only when prec needs more columns.
    Empty spaces are not cached.
    """
    basis = _BASIS_CACHE.get((k, ell, prec, kind))
    if basis is not None:
        return basis
    if kind not in ("M", "S"):
        raise ValueError(f"kind must be 'M' or 'S', got {kind!r}")
    _validate_modulus(ell, "ell")
    dm = dims(k)[0]
    length = (prec + 23) // 24
    if dm and length < dm + k // 12 + 1:
        raise PrecisionError(
            f"prec {prec} too small for weight {k}: need pivots plus Sturm depth"
        )
    start = 0 if kind == "M" else 1
    pivots = tuple(range(start, dm))
    if not pivots:
        rows = _reduce(np.zeros((0, length), dtype=np.int64), ell)
        rows.flags.writeable = False
        return SpaceBasis(k, kind, ell, prec, rows, pivots)
    rows = _ROW_CACHE.get((k, ell))
    if rows is None or rows.shape[1] < length:
        rows = _miller_rows(k, ell, length)
        rows.flags.writeable = False
        _ROW_CACHE[k, ell] = rows
    basis = _BASIS_CACHE[k, ell, prec, kind] = SpaceBasis(k, kind, ell, prec, rows[start:, :length], pivots)
    return basis


@dataclass(frozen=True, eq=False)
class MembershipCertificate:
    """Echelon coordinates verified against the input below depth (1/24-units).

    coordinates is a read-only array in the ring's storage dtype: the
    input's coefficients at the pivots.  checked counts the coefficients
    on the space's strand below depth that the pivots do not fix, that
    is, the ones the certificate actually compared.  Certificates are
    equal when their depth, checked count and coordinates are.
    """

    coordinates: np.ndarray
    depth: int
    checked: int

    def __eq__(self, other):
        if not isinstance(other, MembershipCertificate):
            return NotImplemented
        return (self.depth, self.checked) == (other.depth, other.checked) and np.array_equal(
            self.coordinates, other.coordinates
        )

    __hash__ = None


@dataclass(frozen=True)
class NotMember:
    """Certificate of failure: the first index where solving breaks down."""

    witness: int


def _eta_inverse(e: int, length: int, ell) -> np.ndarray:
    """prod (1 - q^n)^(-e) mod ell on length entries: eta^(-e) without its q^(e/24)."""
    return _power(_inverse(_square_strand(1, length, ell), ell, length), e, ell, length)


def _misses(strand: np.ndarray, start: int, rows: np.ndarray, r0: int, ell) -> np.ndarray:
    """Entries where strand differs from eta^r0 times the combination of rows at its pivots.

    The pivots are start .. start + len(rows) - 1.  With r0 = 0 the
    coordinates are the strand's own entries there, and the check is one
    _dot and one compare.  Otherwise f / eta^r0 is inverted over the
    pivots only, for its coordinates, and the combination is multiplied
    back by eta in r0 sparse passes of eta's cached terms.
    """
    n = strand.size
    quotient = strand[start : start + len(rows)]
    if r0:
        k = start + len(rows)
        quotient = _conv(strand[:k], _eta_inverse(r0, k, ell), ell, k)[start:]
    member = _dot(quotient, rows[:, :n], ell)
    for _ in range(r0):
        member = _sparse_conv(*_square_terms(1, n, ell), member, ell)
    return (member != strand).nonzero()[0]


def _verify(f: QExp24, r0: int, w: int, depth: int, basis: SpaceBasis | None = None):
    """Certify f's strand r0 as a member of eta^r0 * M_w below depth, or refuse it.

    The coordinates are a read-only view of f's strand at the pivots, a
    range: basis.pivots, or 0 .. dim M_w - 1 with no basis.  checked
    counts the other strand indices below depth, each compared: f must
    equal eta^r0 times the combination of basis rows at the pivots of
    f / eta^r0, which is inverted over the pivots only.  eta^r0 is a unit,
    so this is f / eta^r0 equal to that combination, and as eta^r0 starts
    with 1, NotMember names the first index where f differs from a member.
    The caller checks ring, precision and off-class indices.  With no basis,
    one index past the pivots at w = 2 (mod 12) costs one functional (the
    lemma), and only a deeper check builds miller_basis.  The compare
    itself is _misses, which filtration calls directly; given a basis at
    r0 = 0, as coordinates gives one, the check calls no dims, inverts
    nothing and costs one _dot, one compare and the certificate.

    Lemma.  Let w = 12m + 2, N = r0 + 24m, f_i the coefficient of f at
    r0 + 24i, and c_i that of q^i in prod_{n>=1} (1 - q^n)^(-N).  A
    series on the strand agrees with a member of eta^r0 * M_w at every
    index r0 + 24i, i <= m, exactly when sum_{i<=m} f_i c_(m-i) = 0
    (mod ell).  Proof: for f = eta^r0 g with g in M_w, the quotient
    f / eta^N = g / Delta^m has weight 2, trivial multiplier and no pole
    on H, so its constant term, which is the sum, vanishes (pair M_w
    with M^!_(2-w) by constant term, Bruinier-Funke 2004, or take the
    residue of g / Delta^m dtau at the cusp of X(1); the functional is
    the first of Duke-Jenkins 2008).  The sum has integer coefficients
    and c_0 = 1, so mod every prime ell it is a nonzero functional on
    these m + 1 coefficients that kills the m-dimensional image of M_w;
    its kernel is exactly that image.
    """
    ell = f.modulus
    strand = f.strand(r0)[: len(range(r0, depth, 24))]
    n = strand.size
    if basis is None:
        dim, start = dims(w)[0], 0
    else:  # the pivots are start .. dm - 1: S_k's start at 1
        dim, start = basis.dim, basis.pivots[0] if basis.pivots else 0
    bad = ()
    if basis is None and n == dim + 1 and w % 12 == 2:  # the lemma
        bad = _dot(strand, _eta_inverse(r0 + 24 * dim, n, ell)[::-1, None], ell).nonzero()[0] + dim
    elif basis is not None or n > dim:
        if basis is None:
            basis = miller_basis(w, ell, _basis_prec(w, depth))
        bad = _misses(strand, start, basis.rows, r0, ell)
    if len(bad):
        return NotMember(r0 + 24 * int(bad[0]))
    coords = strand[start : start + dim]
    coords.setflags(write=False)
    return MembershipCertificate(coords, depth, n - dim)


def coordinates(f: QExp24, basis: SpaceBasis, depth: int):
    """Solve f against an echelon basis and verify below depth.

    Coordinates are read off the pivots; the combination must then
    reproduce f at every index < depth (depth in 1/24-units).  Returns
    a MembershipCertificate, or a NotMember whose witness is the first
    index below depth where f differs from the combination: an
    integer-exponent mismatch or a nonzero coefficient off the integer
    exponents.
    """
    if f.modulus != basis.ell:
        raise ValueError("series ring does not match basis ring")
    if depth < 1:
        raise ValueError("depth must be positive")
    if depth > f.prec or depth > basis.prec:
        raise PrecisionError("verification depth exceeds available precision")
    if basis.pivots and 24 * basis.pivots[-1] >= depth:
        raise PrecisionError("depth does not reach every pivot")
    result = _verify(f, 0, basis.k, depth, basis)
    off = f.first_off_class(0, result.witness if isinstance(result, NotMember) else depth)
    return result if off is None else NotMember(off)


def filtration(f: QExp24, k: int) -> int:
    """Least weight k' = k (mod ell-1) whose space realizes the reduction.

    Each candidate is solved to the Sturm depth of the original weight k,
    so success certifies equality in weight k.  The spaces are nested mod
    ell, M_k' E_(ell-1) in M_(k'+ell-1) with E_(ell-1) = 1, and the pivots
    of every k' <= k lie below that depth, so a pass at k' implies a pass
    at every higher candidate.  The scan checks k, which a certified member
    must pass, then steps down by ell - 1 while the check passes.

    Each candidate goes straight to _misses, the compare that coordinates
    runs: f's class and precision are checked once here, and no
    certificate is built.  A warm candidate costs one basis lookup and
    one _dot.
    """
    ell = f.modulus
    if f.is_zero():
        raise ValueError("the filtration of the zero series is undefined")
    if k < 0 or k % 2:
        raise ValueError(f"weight {k} holds no nonzero level-one forms")
    if f.first_off_class(0) is not None:
        raise ValueError("filtration applies to integer-exponent series")
    depth = 24 * (k // 12 + 1) + 1
    if f.prec < depth:
        raise PrecisionError(f"filtration at weight {k} needs precision {depth}")
    strand = f.strand(0)[: k // 12 + 2]  # the indices 0, 24, .. below depth

    def passes(k2):
        if dims(k2)[0] == 0:
            return False
        rows = miller_basis(k2, ell, _basis_prec(k2, depth)).rows
        return not _misses(strand, 0, rows, 0, ell).size

    if not passes(k):
        raise CertificationError(
            f"no weight <= {k} realizes the series; membership at weight {k} was claimed"
        )
    while passes(k - (ell - 1)):
        k -= ell - 1
    return k


# === half-integral-weight realization ===


def membership_depth(lam: int, r: int) -> tuple:
    """(quotient weight w, certification depth in 1/24-units)."""
    r0 = r % 24
    w = lam + (1 - r0) // 2
    return w, 24 * (w // 12 + 1) + r0


def _basis_prec(k: int, depth: int) -> int:
    """Basis precision for a weight-k solve to depth: depth, pivots and Sturm depth, plus 24."""
    return max(depth, 24 * (dims(k)[0] + k // 12 + 1)) + 24


def _check_eta_args(lam: int, r: int):
    if r < 1 or math.gcd(r, 6) != 1:
        raise ValueError(f"multiplier exponent r must be positive with gcd(r,6)=1, got {r}")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")


def eta_membership(f: QExp24, lam: int, r: int, depth: int | None = None):
    """Certify f as a member of the realized weight lam + 1/2 space.

    The space is eta^r0 * M_w; membership_depth gives w and the Sturm
    depth 24*(floor(w/12)+1) + r0, which depth=None means and no depth
    goes below.  The coordinates are f's coefficients at r0 + 24 i,
    i < dim M_w; _verify compares the rest of the strand below depth.  A
    nonzero coefficient off the class r0 anywhere in f is the witness.

    checked counts the strand coefficients compared beyond the pivots.
    With checked == 0 the certificate holds only for a series in the space
    by construction, such as eta^k, a theta lift, or a sum within one
    space, as evaluate_recipe relies on at a recipe's root.  A series from
    outside is compared to depth f.prec.  Membership in an empty space
    means f = 0 to the full known precision, and checked is its number of
    strand coefficients.
    """
    _check_eta_args(lam, r)
    r0 = r % 24
    off = f.first_off_class(r0)
    if off is not None:
        return NotMember(off)
    w, sturm = membership_depth(lam, r)
    depth = sturm if depth is None else max(depth, sturm)
    if dims(w)[0] == 0:
        if f.is_zero():
            return MembershipCertificate(f.values[:0], f.prec, len(range(r0, f.prec, 24)))
        return NotMember(f.valuation())
    if f.prec < depth:
        raise PrecisionError(
            f"certifying at lam={lam}, r={r} needs precision {depth}, have {f.prec}"
        )
    return _verify(f, r0, w, depth)
