"""Half-integral weight machinery: certified lifts, descent, Hecke action.

A HalfIntForm couples a mod-ell series with the weight data (lam, r)
and a membership certificate in the realized space.  The operators
here never hand back an uncertified object: theta_lift and
u_ell_descent re-certify their outputs and raise CertificationError
when the expected space fails to contain the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .qseries import (
    QExp24,
    PrecisionError,
    _legendre,
    _length,
    _pow_mod,
    _reduce,
    _square_series,
    _validate_modulus,
    kronecker,
    squarefree_part,
    eta_series,
    theta_op,
    u_op,
)
from .spaces import (
    CertificationError,
    MembershipCertificate,
    NotMember,
    _check_eta_args,
    eta_membership,
)

__all__ = [
    "HalfIntForm",
    "certify",
    "theta_lift",
    "u_ell_descent",
    "hecke_tp2",
    "hecke_eigenvalue_check",
    "shimura_coeffs",
    "canonical_t1",
    "canonical_t2",
    "eta_form",
]


@dataclass(frozen=True)
class HalfIntForm:
    """A certified weight lam + 1/2 form with multiplier exponent r.

    series carries coefficients in F_ell with residue r mod 24; the
    certificate places the series in the realized space to its depth: the
    Sturm depth of membership_depth for a series in the space by
    construction, or more.  Build these through certify().
    """

    series: QExp24
    lam: int
    r: int
    certificate: MembershipCertificate = field(repr=False)

    def __post_init__(self):
        _check_eta_args(self.lam, self.r)
        if self.series.residue != self.r % 24:
            raise ValueError("series residue disagrees with r mod 24")

    @property
    def ell(self) -> int:
        return self.series.modulus

    @property
    def r0(self) -> int:
        return self.r % 24

    def is_zero(self) -> bool:
        return self.series.is_zero()


def certify(series: QExp24, lam: int, r: int, depth: int | None = None) -> HalfIntForm:
    """Certify series in the weight lam + 1/2 space with multiplier power r.

    Raises CertificationError when the series is provably outside the
    space (with the witness index), PrecisionError when the series is
    too short to reach the certification depth.

    depth is eta_membership's: the Sturm depth when None, never less.
    checked counts the coefficients compared past the pivots; with
    checked == 0 the certificate holds only for a series in the space by
    construction, such as eta^k, a theta lift or a sum within one space:
    evaluate_recipe relies on this at a recipe's root.  A series from
    outside is certified with depth=series.prec, at every coefficient.
    """
    result = eta_membership(series, lam, r, depth)
    if isinstance(result, NotMember):
        raise CertificationError(
            f"series is not in the weight {lam}+1/2 space with multiplier "
            f"power {r}: first bad index {result.witness}"
        )
    return HalfIntForm(series, lam, r, result)


def theta_lift(form: HalfIntForm) -> HalfIntForm:
    """Apply the theta operator and re-certify at weight lam + ell + 1 + 1/2.

    The lifted series keeps the multiplier power r.  Failure to certify
    is a CertificationError: the lift of a certified form must land in
    the predicted space.
    """
    return certify(theta_op(form.series), form.lam + form.ell + 1, form.r)


def descent_weight(lam: int, r: int, ell: int) -> tuple:
    """Weight data (lam*, r*) of U_ell(f) for f of weight lam + 1/2, power r.

    f = V_ell(h) = h^ell (mod ell) with h = U_ell(f); h^ell has power
    r* ell = r (mod 24) and lam* + 1/2 <= (lam + 1/2)/ell.  Times eta^s with
    r + s = 0 (mod 24), f and h^ell are congruent level-one forms of weights
    lam + 1/2 + s/2 and ell*(lam* + 1/2) + s/2, which by Serre's weight
    congruence (Sem. Bourbaki 416, 1972) agree mod ell - 1: the class is
    lam - lam* = (ell - 1)/2 (mod ell - 1).  Its spaces are nested mod ell,
    since eta^r0 * M_w * E_(ell-1) lies in eta^r0 * M_(w + ell - 1) and
    E_(ell-1) = 1 (mod ell); so the top lam* of the class under the bound,
    returned here, holds h whichever weight h has.  Under
    lam + 1/2 < ell^2/2 it is the only one.  ValueError when none is >= 0.
    """
    top = (2 * lam + 1 - ell) // (2 * ell)
    lam_star = top - (top - lam + (ell - 1) // 2) % (ell - 1)
    if lam_star < 0:
        raise ValueError(f"no weight is left for the U_{ell} descent of lam = {lam}")
    return lam_star, r * ell % 24


def u_ell_descent(form: HalfIntForm) -> HalfIntForm:
    """Descend a form supported on indices divisible by ell through U_ell.

    h = U_ell(series) is certified at descent_weight(lam, r, ell), the top
    of its class, not at the lowest weight whose check passes: past
    lam + 1/2 < ell^2/2 that check can compare nothing.  A failed check is
    a CertificationError with its witness, a series too short for the
    depth a PrecisionError.  A zero h is certified at that weight too.
    """
    ell, f = form.ell, form.series
    # the indices ell (r0 ell^-1 mod 24 + 24 j) of the class sit at entries start + ell j
    start = (ell * (f.residue * pow(ell, -1, 24) % 24) - f.residue) // 24
    rest = f.values.copy()
    rest[start::ell] = 0
    off = rest.nonzero()[0]
    if off.size:
        raise ValueError(
            f"descent input must be supported on indices divisible by "
            f"{ell}; index {f.residue + 24 * int(off[0])} is not"
        )
    return certify(u_op(f, ell), *descent_weight(form.lam, form.r, ell))


# === Hecke action on 1/24-indexed expansions ===


# (n|p) at the strand indices n = r0 + 24 m, stored as 0, 1, 2 for 0, 1, -1
# so that it indexes a 3-entry table: one intp strand per (p, r0), an
# index array numpy takes without a cast, served by prefix and grown to at
# least twice its length when a longer one is asked for.  A strand grows only
# past its length, so it holds fewer than twice the entries of the longest
# output strand asked for at its (p, r0).
_SIGN_CACHE = {}


def _signs(p: int, r0: int, length: int) -> np.ndarray:
    """(n|p) at n = r0 + 24 m, m < length, as the indices 0, 1, 2 of 0, 1, -1."""
    signs = _SIGN_CACHE.get((p, r0))
    if signs is None or signs.size < length:
        size = length if signs is None else max(length, 2 * signs.size)
        signs = (_legendre(r0 + 24 * np.arange(size), p) % 3).astype(np.intp)
        _SIGN_CACHE[p, r0] = signs
    return signs[:length]


def hecke_tp2(f: QExp24, p: int, lam_int: int) -> QExp24:
    """T(p^2) on a mod-ell series of weight lam_int + 1/2, 1/24-unit indexing.

    b(n) = a(p^2 n) + (12/p) * ((-1)^lam_int * n / p) * p^(lam_int-1) * a(n)
         + p^(2 lam_int - 1) * a(n / p^2)

    with a(n/p^2) = 0 unless p^2 divides n.  p must be a prime >= 5 other
    than ell.  Output precision is ceil(P / p^2); the residue class is
    preserved since p^2 = 1 mod 24.  The strand is _tp2's at s = 0.
    """
    _validate_modulus(p, "p")
    if p == f.modulus:
        raise ValueError(f"p = ell = {f.modulus} is outside the operator's domain")
    out = _tp2(f, p, lam_int, kronecker(12, p))
    return QExp24._of(out, -(-f.prec // (p * p)), f.modulus, f.residue)


def _tp2(f: QExp24, p: int, lam_int: int, chi12: int, s: int = 0) -> np.ndarray:
    """The reduced strand of T(p^2) f - s f below ceil(P / p^2), for a checked p, with chi12 = (12|p).

    Since p^2 = 1 mod 24, p^2 n lies on the strand of n: with strand
    indices n = r0 + 24 j, index p^2 n sits at entry k0 + p^2 j with
    k0 = (p^2 - 1) r0 / 24, so a(p^2 n) and a(n / p^2) are strided slices
    of f's strand.  The character (n|p) is read from a cached sign strand
    of (p, r0), which picks the factor of a(n), c1 (n|p) - s mod ell, out
    of a 3-entry table of residues.

    Each entry is reduced once.  Off the entries k0 + p^2 j it sums a
    residue and one product of residues, below ell (ell - 1).  On them,
    where (n|p) = 0 and the factor is -s, it adds c2 a(n / p^2) with c2
    taken in [-ell, 0), so the two products have opposite signs and the
    sum lies in [-ell (ell - 1), ell (ell - 1)]: inside int64 wherever the
    ring stores int64, ell <= 3037000493.  With both factors residues it
    could reach 2 (ell - 1)^2 and pass 2^63 above ell = 2^31.
    """
    ell, a, r0 = f.modulus, f.values, f.residue
    p2 = p * p
    n = _length(-(-f.prec // p2), r0)
    k0 = (p2 - 1) * r0 // 24
    c1 = chi12 * (kronecker(-1, p) if lam_int % 2 else 1) * pow(p, lam_int - 1, ell)
    table = np.array([-s % ell, (c1 - s) % ell, (-c1 - s) % ell], dtype=a.dtype)
    out = a[k0::p2][:n] + table[_signs(p, r0, n)] * a[:n]
    out[k0::p2] += (pow(p, 2 * lam_int - 1, ell) - ell) * a[: len(range(k0, n, p2))]
    return out % ell


def hecke_eigenvalue_check(g: HalfIntForm, p: int, eps_p: int = 1) -> bool:
    """Verify the T(p^2) eigenvalue congruence for a theta-lifted form.

    With lam_pre = g.lam - (ell+1) (required nonnegative and even; odd
    weights are outside this check's scope) and lam_bar = lam_pre mod
    (ell-1), the expected scalar is

        s = eps_p * (12/p) * (p^(lam_bar+2) + p^(lam_bar+1))  mod ell.

    Requires p >= 5, p != ell, p not congruent to 0 or 1 mod ell, and
    eps_p in {+1, -1}.  The congruence holds when T(p^2) g - s g, _tp2's
    strand, is zero at every index below the joint precision ceil(P/p^2).
    """
    ell = g.ell
    _validate_modulus(p, "p")
    if p % ell in (0, 1):
        raise ValueError(f"p = {p} is 0 or 1 mod ell = {ell}")
    if eps_p not in (1, -1):
        raise ValueError(f"eps_p must be +1 or -1, got {eps_p}")
    lam_pre = g.lam - (ell + 1)
    if lam_pre < 0 or lam_pre % 2:
        raise ValueError(
            f"eigenvalue check needs lam - (ell+1) nonnegative and even, "
            f"got lam = {g.lam}, ell = {ell}"
        )
    lam_bar = lam_pre % (ell - 1)
    chi12 = kronecker(12, p)
    scalar = eps_p * chi12 * (pow(p, lam_bar + 2, ell) + pow(p, lam_bar + 1, ell))
    return not _tp2(g.series, p, g.lam, chi12, scalar).any()


# The divisor pairs (d, q) with d q <= N, ordered by d q, and ends[k], the
# number of pairs with d q <= k: the pairs of n are entries ends[n - 1] ..
# ends[n] - 1.  Served by prefix and grown at least twofold, N < 2 n_max.
_PAIR_D = _PAIR_Q = _PAIR_ENDS = np.zeros(0, dtype=np.int64)


def _divisor_pairs(n_max: int):
    """(d, q, starts) for n_max >= 1: the pairs d q <= n_max, by d q, and where those of n = 1 .. n_max start."""
    global _PAIR_D, _PAIR_Q, _PAIR_ENDS
    if _PAIR_ENDS.size <= n_max:
        size = max(n_max, 2 * _PAIR_ENDS.size - 2)
        d = np.arange(1, size + 1)
        count = size // d
        ds = np.repeat(d, count)
        qs = np.arange(ds.size) - np.repeat(np.cumsum(count) - count, count) + 1
        n = ds * qs
        order = np.argsort(n, kind="stable")
        _PAIR_D, _PAIR_Q, _PAIR_ENDS = ds[order], qs[order], np.cumsum(np.bincount(n, minlength=size + 1))
    count = _PAIR_ENDS[n_max]
    return _PAIR_D[:count], _PAIR_Q[:count], _PAIR_ENDS[:n_max]


# (t, lam % 2) -> (-1/d)^lam (12t/d) at d = 0 .. N, served by prefix and
# grown at least twofold: 0 at even d, and by reciprocity (12t/d) = (3t/d) =
# (-1)^((3t-1)/2 (d-1)/2) prod over p | 3t of (d/p) at odd d
_CHAR_CACHE = {}


def _characters(t: int, odd: int, n_max: int) -> np.ndarray:
    """(-1/d)^lam (12t/d) for d = 0 .. n_max, with odd = lam % 2, for a squarefree t prime to 6."""
    chars = _CHAR_CACHE.get((t, odd))
    if chars is None or chars.size <= n_max:
        d = np.arange(n_max + 1 if chars is None else max(n_max + 1, 2 * chars.size))
        chars, rest = d % 2 * np.where(d % 4 == 3, -1 if (odd + 3 * t // 2) % 2 else 1, 1), 3 * t
        for p in range(3, math.isqrt(rest) + 1, 2):  # the primes of 3t (squarefree), divided out
            if rest % p == 0:
                chars, rest = chars * _legendre(d, p), rest // p
        if rest > 1:
            chars = chars * _legendre(d, rest)
        _CHAR_CACHE[t, odd] = chars
    return chars[: n_max + 1]


def shimura_coeffs(f: QExp24, t: int, lam: int, n_max: int) -> list:
    """Coefficients A_t(1..n_max) of the Shimura-type divisor sum.

    A_t(n) = sum over d | n of (-1/d)^lam * (12t/d) * d^(lam-1) * a(t n^2 / d^2)

    computed mod ell.  t must be squarefree with gcd(t, 6) = 1; f must
    reach index t * n_max^2, and n_max < ell when lam <= 0.  The precision
    is checked first, so t < prec bounds the trial division that tests t
    squarefree; n_max < 1 asks for no sum and returns [].  A call reads
    the divisor pairs and characters from cached tables, computes
    d^(lam-1) mod ell, reads a(t m^2) off the strand, and sums each n's
    reduced products in one np.add.reduceat (at most n_max residues).
    """
    ell = f.modulus
    if t < 1 or math.gcd(t, 6) != 1:
        raise ValueError(f"t must be squarefree and prime to 6, got {t}")
    if f.prec <= t * n_max * n_max:
        raise PrecisionError(
            f"need precision above {t * n_max * n_max}, have {f.prec}"
        )
    if lam < 1 and n_max >= ell:
        raise ValueError(f"d^({lam - 1}) is undefined mod {ell} at d = {ell}; need n_max < {ell}")
    if n_max < 1:
        return []
    if squarefree_part(t) != t:
        raise ValueError(f"t must be squarefree and prime to 6, got {t}")
    m = np.arange(n_max + 1)
    index = t * m * m - f.residue
    on = index % 24 == 0
    a = np.zeros(n_max + 1, dtype=f.values.dtype)
    a[on] = f.values[index[on] // 24]
    power = _pow_mod(_reduce(m, ell), lam - 1 if lam >= 1 else (lam - 1) % (ell - 1), ell)
    weight = _characters(t, lam % 2, n_max) * power % ell
    d, q, starts = _divisor_pairs(n_max)
    return (np.add.reduceat(weight[d] * a[q] % ell, starts) % ell).tolist()


def canonical_t1(lam: int, ell: int, prec: int) -> QExp24:
    """T1 = sum (12/n) n^lam q^(n^2/24) mod ell, residue class 1.

    The exponent is taken literally: lam = 0 keeps the terms at ell | n
    (T1(0) is eta mod ell), lam >= 1 kills them.
    """
    if prec < 2:
        raise PrecisionError("canonical series need precision >= 2")
    return _square_series(1, prec, ell, lam)


def canonical_t2(ell: int, prec: int) -> QExp24:
    """T2 = sum (12/n) q^(ell n^2 / 24) mod ell, residue class ell mod 24."""
    if prec < 2:
        raise PrecisionError("canonical series need precision >= 2")
    return _square_series(ell, prec, ell)


def eta_form(prec: int, ell: int) -> HalfIntForm:
    """Eta itself, certified at lam = 0, r = 1.  Convenience constructor."""
    return certify(eta_series(prec, ell), 0, 1)
