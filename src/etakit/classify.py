"""Three-case classification of certified half-integral forms mod ell.

A nonzero certified form of weight lam + 1/2 with lam + 1/2 < ell^2/2,
supported on the square classes {1, ell}, falls into exactly one of
three shapes: a twisted unary theta series in class 1, a dilated eta in
class ell, or (only when ell = 1 mod 24) the sum of both.  classify()
records the hypotheses, builds the candidate congruence target from the
coefficients at indices 1 and ell, and verifies it to the depth of the
form's membership certificate.  Everything that fails lands in
"unclassified" with a witness, never an exception, so boundary examples
flow through with their data.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .qseries import PrecisionError, QExp24, _length, _square_terms
from .halfint import HalfIntForm

__all__ = [
    "CheckResult",
    "CaseReport",
    "check_two_classes",
    "check_multiplier",
    "classify",
]


@dataclass(frozen=True)
class CheckResult:
    """Named verdict; witness is the first offending index when it fails."""

    name: str
    passed: bool
    witness: int | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def check_two_classes(series: QExp24) -> CheckResult:
    """Pass iff every support index is a square or ell times a square.

    Those are the n whose squarefree part lies in {1, ell}; index 0 has
    none and fails.  The witness is the first index that fails, found by
    isqrt alone.  The scan covers the known prefix; for a certified form's
    series the certificate depth upgrades this to a statement about the
    whole expansion.
    """
    ell = series.modulus
    for n in series.support():
        if not n or (math.isqrt(n) ** 2 != n and (n % ell or math.isqrt(n // ell) ** 2 != n // ell)):
            return CheckResult("two_square_classes", False, n)
    return CheckResult("two_square_classes", True)


def check_multiplier(r: int, ell: int) -> CheckResult:
    """Pass iff r = 1 or ell mod 24; the only classes a nonzero form allows."""
    ok = r % 24 in (1, ell % 24)
    return CheckResult("multiplier", ok, None if ok else r % 24)


@dataclass(frozen=True)
class CaseReport:
    """Outcome of classify() plus the evidence that produced it.

    case is one of "1", "2", "3", "zero", "unclassified"; depth is the
    index bound (1/24-units) to which the congruence target was compared.
    """

    case: str
    a1: int
    al: int
    r_mod_24: int
    lambda_mod: int
    hypothesis_ok: bool
    depth: int
    checks: tuple

    def to_dict(self) -> dict:
        return {
            "case": self.case,
            "a1": self.a1,
            "al": self.al,
            "r_mod_24": self.r_mod_24,
            "lambda_mod": self.lambda_mod,
            "hypothesis_ok": self.hypothesis_ok,
            "depth": self.depth,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def classify(form: HalfIntForm) -> CaseReport:
    """Assign a certified form to one of the three cases, or explain why not.

    Reads a1 and al (indices 1 and ell), writes the candidate target
    a1 * T1(lam) + al * T2 (T1(0) = eta when ell - 1 divides lam inside
    the weight hypothesis) onto one zeros strand of the form's own class,
    scattering the scaled terms of T1 and T2 from qseries' table of
    square-series terms (about sqrt(24 depth) / 3 for T1), and compares it
    with the form's strand in one array test below the certificate's depth:
    the Sturm depth 24 * (floor(w/12) + 1) + r0 for a form built in its
    space, every coefficient for a series certified to its precision, and
    the whole zero series in an empty space.  No series object is built on
    the way.  The weight hypothesis lam + 1/2 < ell^2 / 2 is recorded as
    hypothesis_ok but does not overturn a passing congruence: explicit
    constructions at or past the boundary can still land in a case, and
    the boundary example fails on its own congruence.
    """
    if not isinstance(form, HalfIntForm):
        raise TypeError("classify takes a certified form; use certify() first")
    series = form.series
    ell = form.ell
    lam, r = form.lam, form.r
    r0 = r % 24
    lam_mod = lam % (ell - 1)
    hypothesis_ok = 2 * lam + 1 < ell * ell
    depth = form.certificate.depth

    cls_check = check_two_classes(series)
    mult_check = check_multiplier(r, ell)
    checks = [cls_check, mult_check]

    a1 = series.coeff(1) if series.prec > 1 else 0
    al = series.coeff(ell) if series.prec > ell else 0

    def report(case: str, congruence: CheckResult) -> CaseReport:
        return CaseReport(
            case, a1, al, r0, lam_mod, hypothesis_ok, depth,
            tuple(checks + [congruence]),
        )

    if series.is_zero():
        return report("zero", CheckResult("congruence", True))

    # shape of the case, from the two distinguished coefficients
    case = "unclassified"
    if cls_check.passed and mult_check.passed:
        if a1 and not al and r0 == 1 and lam % 2 == 0:
            case = "1"
        elif al and not a1 and r0 == ell % 24 and lam_mod == (ell - 1) // 2:
            case = "2"
        elif a1 and al and r0 == 1 and ell % 24 == 1 and lam_mod == (ell - 1) // 2:
            case = "3"

    if depth > series.prec:
        raise PrecisionError("comparison depth exceeds available precision")
    # a1 != 0 puts index 1 in the support and al != 0 index ell, so each
    # term of the target lies on the series' own class r0, and its cached
    # terms, scaled, are scattered there; T1 sits at the squares and T2 at ell
    # times the squares, so the two never share an entry
    n = _length(depth, r0)
    target = np.zeros(n, dtype=series.values.dtype)
    if a1:
        # inside the hypothesis, theta^j eta with 2j = lam (mod ell - 1) has j = 0
        # when ell - 1 | lam: its target is T1(0) = eta, with its terms at ell | n
        entries, values = _square_terms(1, n, ell, 0 if hypothesis_ok and lam_mod == 0 else lam)
        target[entries] = values * a1 % ell
    if al:
        entries, values = _square_terms(ell, n, ell)
        target[entries] = values * al % ell
    bad = (series.values[:n] != target).nonzero()[0]
    witness = r0 + 24 * int(bad[0]) if bad.size else None
    congruence = CheckResult("congruence", witness is None, witness)

    if case == "unclassified" or not congruence.passed:
        return report("unclassified", congruence)
    return report(case, congruence)
