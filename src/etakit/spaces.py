"""Level-one form spaces mod ell: echelon bases, membership, filtration.

Weight-k forms of level one are spanned by monomials Delta^j E4^a E6^b.
Reducing the integer spanning set mod ell and row-reducing gives an
echelon basis with pivot j at integer exponent j; reading coordinates
off the pivots plus a Sturm-depth verification yields membership
certificates.  These Miller bases are the only family of bases.

Spaces of half-integral weight lam + 1/2 with the r-th power of the eta
multiplier are realized as eta^r0 * M_w with r0 = r mod 24 and
w = lam + (1 - r0)/2, so f lies in one exactly when f / eta^r0 lies in
M_w.  Membership reads the coordinates off f's own coefficients at the
pivot indices and builds no basis; the certification depth reaches one
coefficient past them only when w = 2 (mod 12), and that one is checked
by a single linear functional, the constant term of a weight-2 quotient.

Every basis is held as a read-only (dim x L) matrix of integer-exponent
coefficients: row i, column m is the coefficient of element i at q^m.
The dense series (``elements``) are expanded only on first access.  One
process-wide dict holds the rows of M_k once per (k, ell), and S_k is
served as its rows 1..; a shorter precision is served as a prefix of
the longest matrix built, which equals a cold build because truncation
commutes with the convolutions and row operations.  The generators E4,
E6 and t = Delta/E4^3 are kept per ell the same way.  A repeated call
with the same arguments returns the same object.  Empty spaces are not
cached.  The caches are not locked: they belong to one thread of one
process.

Residues are stored in qseries' storage dtype, and every sum of
products goes through qseries' ``_conv`` or ``_dot``, which decide
alone when int64 would overflow.
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
    _dot,
    _inverse,
    _power,
    _reduce,
    _square_strand,
    eta_series,
    is_prime,
)

__all__ = [
    "CertificationError",
    "dims",
    "eisenstein_e4",
    "eisenstein_e6",
    "delta_series",
    "SpaceBasis",
    "miller_basis",
    "MembershipCertificate",
    "NotMember",
    "coordinates",
    "sturm_check",
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
    s3 = [0] * n
    s5 = [0] * n
    for d in range(1, n):
        d3 = d**3
        d5 = d3 * d * d
        for m in range(d, n, d):
            s3[m] += d3
            s5[m] += d5
    e4 = [1] + [240 * s for s in s3[1:]]
    e6 = [1] + [-504 * s for s in s5[1:]]
    return e4, e6


def _integer_exponent_series(values: list, prec: int) -> QExp24:
    return QExp24(values=np.array(values, dtype=object), prec=prec, residue=0)


def eisenstein_e4(prec: int) -> QExp24:
    """E4 = 1 + 240 sum sigma_3(n) q^n over Z, in 1/24-unit indexing."""
    return _integer_exponent_series(_e4_e6((prec + 23) // 24)[0], prec)


def eisenstein_e6(prec: int) -> QExp24:
    """E6 = 1 - 504 sum sigma_5(n) q^n over Z."""
    return _integer_exponent_series(_e4_e6((prec + 23) // 24)[1], prec)


def delta_series(prec: int) -> QExp24:
    """The discriminant form as the 24th power of eta, over Z."""
    return eta_series(prec, None) ** 24 if prec >= 2 else QExp24.zero(prec)


# === exact mod-ell kernels on strand matrices ===


def _rref(rows: np.ndarray, pivots, ell: int) -> np.ndarray:
    """Clear every pivot column outside its pivot row, by back-substitution.

    Rows arrive triangular: rows[i][pivots[i]] == 1, zero left of the
    pivot.  From the bottom up, row i subtracts its entries at the later
    pivots times the later rows, which are already reduced: one
    vector-matrix product per row.  The rows are reduced in place.
    """
    assert all(rows[i, p] == 1 for i, p in enumerate(pivots)), "leading coefficient"
    pivots = list(pivots)
    for i in range(len(pivots) - 2, -1, -1):
        p = pivots[i + 1]  # the later rows are zero left of p
        rows[i, p:] = (rows[i, p:] - _dot(rows[i, pivots[i + 1:]], rows[i + 1:, p:], ell)) % ell
    return rows


_GENERATOR_CACHE = {}


def _generators(ell: int, length: int) -> tuple:
    """E4, E6 and t = Delta / E4^3 mod ell at integer exponents 0 .. length - 1.

    _GENERATOR_CACHE[ell] holds the longest ones built; shorter are prefixes.
    """
    cached = _GENERATOR_CACHE.get(ell)
    if cached is None or cached[0].size < length:
        e4, e6 = (_reduce(np.array(c, dtype=object), ell) for c in _e4_e6(length))
        e4cube = _conv(_conv(e4, e4, ell, length), e4, ell, length)
        delta = (e4cube - _conv(e6, e6, ell, length)) * pow(1728, -1, ell) % ell
        t = _conv(delta, _inverse(e4cube, ell, length), ell, length)
        cached = _GENERATOR_CACHE[ell] = (e4, e6, t)
    return tuple(strand[:length] for strand in cached)


def _spanning_rows(k: int, ell: int, length: int) -> np.ndarray:
    """Rows Delta^j * E4^a * E6^b mod ell for j = 0..dim M_k - 1.

    b is 0 or 1 by k mod 4, which makes a = (k - 12j - 6b)/4 integral
    for every j.  Row j is row 0 times t^j with t = Delta / E4^3, so
    each row costs one convolution.  Row j has leading term q^j with
    coefficient 1, so the rows are triangular, and rows j >= 1 are cusp
    forms.
    """
    dm = dims(k)[0]
    e4, e6, t = _generators(ell, length)
    b = 0 if k % 4 == 0 else 1
    row = _power(e4, (k - 6 * b) // 4, ell, length)
    if b:
        row = _conv(row, e6, ell, length)
    rows = [row]
    for _ in range(dm - 1):
        rows.append(_conv(rows[-1], t, ell, length))
    return np.array(rows)


# (k, ell) -> [rows of M_k, {(prec, kind): basis}]
_ROW_CACHE = {}


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
        return tuple(
            QExp24(values=row, prec=self.prec, modulus=self.ell, residue=0) for row in self.rows
        )


def miller_basis(k: int, ell: int, prec: int, kind: str = "M") -> SpaceBasis:
    """Reduced echelon basis of the weight-k space mod ell.

    Spanning set Delta^j * E4^a * E6^b for j = 0..dim-1, with b in
    {0, 1} making the complementary weight divisible by 4.  Leading
    terms are q^j, so the set row-reduces without pivot search.

    S_k is rows 1.. of the reduced M_k: back-substitution only subtracts
    later rows, and the spanning rows from j = 1 on are cusp forms.
    _ROW_CACHE[(k, ell)] holds [rows, {(prec, kind): basis}]: the longest
    reduced M_k built so far and every basis served from a prefix of it.
    Empty spaces are not cached.
    """
    if kind not in ("M", "S"):
        raise ValueError(f"kind must be 'M' or 'S', got {kind!r}")
    if ell < 5 or not is_prime(ell):
        raise ValueError(f"ell must be a prime >= 5, got {ell}")
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
    entry = _ROW_CACHE.setdefault((k, ell), [None, {}])
    basis = entry[1].get((prec, kind))
    if basis is None:
        if entry[0] is None or entry[0].shape[1] < length:
            rows = _rref(_spanning_rows(k, ell, length), range(dm), ell)
            rows.flags.writeable = False
            entry[0] = rows
        basis = SpaceBasis(k, kind, ell, prec, entry[0][start:, :length], pivots)
        entry[1][(prec, kind)] = basis
    return basis


@dataclass(frozen=True)
class MembershipCertificate:
    """Echelon coordinates verified against the input below depth (1/24-units).

    checked counts the coefficients on the space's strand below depth
    that the pivots do not fix, that is, the ones the certificate
    actually compared.
    """

    coordinates: tuple
    depth: int
    checked: int


@dataclass(frozen=True)
class NotMember:
    """Certificate of failure: the first index where solving breaks down."""

    witness: int


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
    if any(24 * pivot >= depth for pivot in basis.pivots):
        raise PrecisionError("depth does not reach every pivot")
    ell, dim = basis.ell, basis.dim
    n = len(range(0, depth, 24))
    target = f.strand(0)[:n]
    coords = target[list(basis.pivots)]
    combined = _dot(coords, basis.rows[:, :n], ell)
    bad = np.flatnonzero(combined != target)
    limit = 24 * int(bad[0]) if bad.size else depth
    off = f.first_off_class(0, limit)
    if off is not None:
        return NotMember(off)
    if limit < depth:
        return NotMember(limit)
    return MembershipCertificate(tuple(coords.tolist()), depth, n - dim)


def sturm_check(f: QExp24, g: QExp24, k: int) -> bool:
    """Congruence of two certified weight-k members up to the Sturm bound.

    Agreement at every integer exponent <= floor(k/12) + 1 pins the
    difference past the bound weight/12, which forces it to vanish.
    """
    if f.modulus != g.modulus:
        raise ValueError("ring mismatch")
    bound = k // 12 + 1
    need = 24 * bound + 1
    if f.prec < need or g.prec < need:
        raise PrecisionError(f"Sturm check at weight {k} needs precision {need}")
    return f.agrees_with(g, need)


def filtration(f: QExp24, k: int) -> int:
    """Least weight k' = k (mod ell-1) whose space realizes the reduction.

    Scans candidates upward from k mod (ell-1); each candidate is solved
    to the Sturm depth of the original weight k, so success certifies
    equality in weight k.  A certified member of the weight-k space must
    succeed by k' = k.
    """
    ell = f.modulus
    if ell is None:
        raise ValueError("filtration needs prime-field coefficients")
    if f.is_zero():
        raise ValueError("the filtration of the zero series is undefined")
    if k < 0 or k % 2:
        raise ValueError(f"weight {k} holds no nonzero level-one forms")
    if f.first_off_class(0) is not None:
        raise ValueError("filtration applies to integer-exponent series")
    depth = 24 * (k // 12 + 1) + 1
    if f.prec < depth:
        raise PrecisionError(f"filtration at weight {k} needs precision {depth}")
    for k2 in range(k % (ell - 1), k + 1, ell - 1):
        if dims(k2)[0] == 0:
            continue
        basis = miller_basis(k2, ell, _basis_prec(k2, depth), "M")
        if isinstance(coordinates(f, basis, depth), MembershipCertificate):
            return k2
    raise CertificationError(
        f"no weight <= {k} realizes the series; membership at weight {k} was claimed"
    )


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


def eta_membership(f: QExp24, lam: int, r: int):
    """Certify f as a member of the realized weight lam + 1/2 space.

    The space is eta^r0 * M_w; membership_depth gives w and the
    verification depth 24*(floor(w/12)+1) + r0.  The coordinates are f's
    coefficients at the pivot indices r0 + 24 i, i < dim M_w.  Below the
    depth lie dim M_w + 1 strand coefficients when w = 2 (mod 12) and
    dim M_w otherwise, so only when w = 2 (mod 12) is one more checked.

    Lemma.  Let w = 12m + 2, N = r0 + 24m, f_i the coefficient of f at
    r0 + 24i, and c_i that of q^i in prod_{n>=1} (1 - q^n)^(-N).  A
    series on the strand agrees with a member of eta^r0 * M_w at every
    index r0 + 24i, i <= m, exactly when sum_{i<=m} f_i c_(m-i) = 0
    (mod ell).  Proof: for f = eta^r0 g with g in M_w, the quotient
    f / eta^N = g / Delta^m has weight 2, trivial multiplier and no pole
    on H, so its constant term, which is the sum, vanishes (pair M_w
    with M^!_(2-w) by constant term, Bruinier-Funke 2004, or take the
    residue of g / Delta^m dtau at the cusp of X(1)).  The sum has
    integer coefficients and c_0 = 1, so mod every prime ell it is a
    nonzero functional on these m + 1 coefficients that kills the
    m-dimensional image of M_w; its kernel is exactly that image.  A
    nonzero sum is reported at index r0 + 24m, the one coefficient no
    pivot fixes.

    checked counts the strand coefficients compared beyond the pivots.
    With checked == 0 the certificate holds only for a series in the space
    by construction, such as eta^k, a theta lift, or a sum within one
    space, as evaluate_recipe relies on at a recipe's root.  Membership in
    an empty space means f = 0 to the full known precision, and checked
    is its number of strand coefficients.
    """
    _check_eta_args(lam, r)
    ell = f.modulus
    if ell is None:
        raise ValueError("membership certification works over a prime field")
    r0 = r % 24
    off = f.first_off_class(r0)
    if off is not None:
        return NotMember(off)
    w, depth = membership_depth(lam, r)
    dm = dims(w)[0]
    if dm == 0:
        if f.is_zero():
            return MembershipCertificate((), f.prec, len(range(r0, f.prec, 24)))
        return NotMember(f.valuation())
    if f.prec < depth:
        raise PrecisionError(
            f"certifying at lam={lam}, r={r} needs precision {depth}, have {f.prec}"
        )
    strand = f.strand(r0)
    coords = tuple(strand[:dm].tolist())
    n = len(range(r0, depth, 24))
    if n <= dm:  # an echelon basis is the identity on these columns
        return MembershipCertificate(coords, depth, 0)
    c = _power(_inverse(_square_strand(1, n, ell), ell, n), r0 + 24 * dm, ell, n)
    if _dot(strand[:n], c[::-1, None], ell)[0]:
        return NotMember(r0 + 24 * dm)
    return MembershipCertificate(coords, depth, 1)
