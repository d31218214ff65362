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

from .qseries import (
    QExp24,
    PrecisionError,
    _legendre,
    _square_series,
    kronecker,
    is_prime,
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
    certificate places the series in the realized space at the depth
    prescribed by membership_depth.  Build these through certify().
    """

    series: QExp24
    lam: int
    r: int
    certificate: MembershipCertificate = field(repr=False)

    def __post_init__(self):
        if self.series.modulus is None:
            raise ValueError("a certified form needs prime-field coefficients")
        _check_eta_args(self.lam, self.r)
        if self.series.residue is not None and self.series.residue != self.r % 24:
            raise ValueError("series residue disagrees with r mod 24")

    @property
    def ell(self) -> int:
        return self.series.modulus

    @property
    def r0(self) -> int:
        return self.r % 24

    def is_zero(self) -> bool:
        return self.series.is_zero()


def certify(series: QExp24, lam: int, r: int) -> HalfIntForm:
    """Certify series in the weight lam + 1/2 space with multiplier power r.

    Raises CertificationError when the series is provably outside the
    space (with the witness index), PrecisionError when the series is
    too short to reach the certification depth.

    checked counts the coefficients compared past the pivots (see
    eta_membership); with checked == 0 the certificate holds only for a
    series in the space by construction, such as eta^k, a theta lift or a
    sum within one space: evaluate_recipe relies on this at a recipe's root.
    """
    result = eta_membership(series, lam, r)
    if isinstance(result, NotMember):
        raise CertificationError(
            f"series is not in the weight {lam}+1/2 space with multiplier "
            f"power {r}: first bad index {result.witness}"
        )
    if series.residue is None:
        series = series.with_residue(r % 24)
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
    ell = form.ell
    for n, _ in form.series.nonzero_items():
        if n % ell:
            raise ValueError(
                f"descent input must be supported on indices divisible by "
                f"{ell}; index {n} is not"
            )
    return certify(u_op(form.series, ell), *descent_weight(form.lam, form.r, ell))


# === Hecke action on 1/24-indexed expansions ===


def hecke_tp2(f: QExp24, p: int, lam_int: int) -> QExp24:
    """T(p^2) on a mod-ell series of weight lam_int + 1/2, 1/24-unit indexing.

    b(n) = a(p^2 n) + (12/p) * ((-1)^lam_int * n / p) * p^(lam_int-1) * a(n)
         + p^(2 lam_int - 1) * a(n / p^2)

    with a(n/p^2) = 0 unless p^2 divides n.  p must be a prime >= 5 other
    than ell.  Output precision is ceil(P / p^2); the residue class is
    preserved since p^2 = 1 mod 24.

    Since p^2 = 1 mod 24, p^2 n lies on the strand of n: with strand
    indices n = o + s j, index p^2 n sits at entry k0 + p^2 j with
    k0 = (p^2 - 1) o / s, so a(p^2 n) and a(n / p^2) are strided slices
    of f's strand.
    """
    if p in (2, 3) or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
    ell = f.modulus
    if ell is None:
        raise ValueError("hecke_tp2 works over a prime field")
    if p == ell:
        raise ValueError(f"p = ell = {ell} is outside the operator's domain")
    p2 = p * p
    new_prec = -(-f.prec // p2)
    parity_sign = kronecker(-1, p) if lam_int % 2 else 1
    c1 = kronecker(12, p) * parity_sign * pow(p, lam_int - 1, ell) % ell
    c2 = pow(p, 2 * lam_int - 1, ell)
    a = f.values
    n = f.indices()[: len(range(f.offset, new_prec, f.step))]
    k0 = (p2 - 1) * f.offset // f.step
    # each product of residues is reduced before the three terms are summed
    chi_n = _legendre(n, p).astype(a.dtype) * c1 % ell
    out = a[k0::p2][: n.size] + chi_n * a[: n.size] % ell
    out[k0::p2] += c2 * a[: len(range(k0, n.size, p2))] % ell
    return QExp24(values=out, prec=new_prec, modulus=ell, residue=f.residue)


def hecke_eigenvalue_check(g: HalfIntForm, p: int, eps_p: int = 1) -> bool:
    """Verify the T(p^2) eigenvalue congruence for a theta-lifted form.

    With lam_pre = g.lam - (ell+1) (required nonnegative and even; odd
    weights are outside this check's scope) and lam_bar = lam_pre mod
    (ell-1), the expected scalar is

        eps_p * (12/p) * (p^(lam_bar+2) + p^(lam_bar+1))  mod ell.

    Requires p >= 5, p != ell, p not congruent to 0 or 1 mod ell, and
    eps_p in {+1, -1}.  Compares T(p^2) g to scalar * g at every index
    below the joint precision ceil(P/p^2).
    """
    ell = g.ell
    if p in (2, 3) or not is_prime(p):
        raise ValueError(f"p must be a prime >= 5, got {p}")
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
    scalar = (
        eps_p
        * kronecker(12, p)
        * (pow(p, lam_bar + 2, ell) + pow(p, lam_bar + 1, ell))
    ) % ell
    lhs = hecke_tp2(g.series, p, g.lam)
    return lhs == g.series.truncate(lhs.prec).scale(scalar)


def shimura_coeffs(f: QExp24, t: int, lam: int, n_max: int) -> list:
    """Coefficients A_t(1..n_max) of the Shimura-type divisor sum.

    A_t(n) = sum over d | n of (-1/d)^lam * (12t/d) * d^(lam-1) * a(t n^2 / d^2)

    computed mod ell.  t must be squarefree with gcd(t, 6) = 1; f must
    reach index t * n_max^2.
    """
    ell = f.modulus
    if ell is None:
        raise ValueError("shimura_coeffs works over a prime field")
    if t < 1 or math.gcd(t, 6) != 1 or squarefree_part(t) != t:
        raise ValueError(f"t must be squarefree and prime to 6, got {t}")
    if f.prec <= t * n_max * n_max:
        raise PrecisionError(
            f"need precision above {t * n_max * n_max}, have {f.prec}"
        )
    # a(t m^2) for m <= n_max: the only coefficients the sums read
    a = [f.coeff(t * m * m) for m in range(n_max + 1)]
    totals = [0] * (n_max + 1)
    for d in range(1, n_max + 1):
        # the weight of divisor d, once, added into every multiple n of d
        sign = kronecker(-1, d) if lam % 2 else 1
        weight = sign * kronecker(12 * t, d) * pow(d, lam - 1, ell)
        for n in range(d, n_max + 1, d):
            totals[n] += weight * a[n // d]
    return [total % ell for total in totals[1:]]


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
