"""Independent oracles and checks for the benchmark's workloads.

Nothing here imports etakit.  The expected values come from first
principles: the character (12/n) read off n mod 12, divisor sums by
trial division, the closed forms of theta^k(eta), V_m(eta) and the
case-3 target, and the depth formula of the paper.  Every check takes
plain integers, sequences and dicts and returns a list of problem
strings; an empty list means the output passed.
"""

from __future__ import annotations

_CHI12 = {1: 1, 11: 1, 5: -1, 7: -1}


def chi12(n: int) -> int:
    """The character (12/n): +1 for n = +-1, -1 for n = +-5 (mod 12), else 0."""
    return _CHI12.get(n % 12, 0)


def sigma1(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def primes_between(lo: int, hi: int) -> list:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def certification_depth(lam: int, r: int) -> int:
    """24(floor(w/12) + 1) + r0 with r0 = r mod 24 and w = lam + (1 - r0)/2."""
    r0 = r % 24
    w = lam + (1 - r0) // 2
    return 24 * (w // 12 + 1) + r0


# === closed forms, as {index: coefficient mod ell} below a bound ===


def theta_iterate_of_eta(ell: int, k: int, c: int, bound: int) -> dict:
    """c * theta^k(eta): coefficient c (12/n) (n^2/24)^k at index n^2."""
    inv24 = pow(24, -1, ell)
    out = {}
    n = 1
    while n * n < bound:
        out[n * n] = c * chi12(n) * pow(n * n * inv24, k, ell) % ell
        n += 1
    return out


def dilated_eta(ell: int, m: int, c: int, bound: int) -> dict:
    """c * V_m(eta): coefficient c (12/n) at index m n^2."""
    out = {}
    n = 1
    while m * n * n < bound:
        out[m * n * n] = c * chi12(n) % ell
        n += 1
    return out


def case3_target(ell: int, lam: int, a1: int, al: int, bound: int) -> dict:
    """a1 sum_{ell not | n} (12/n) n^lam q^(n^2/24) + al sum (12/n) q^(ell n^2/24)."""
    out = {}
    n = 1
    while n * n < bound:
        if n % ell:
            out[n * n] = a1 * chi12(n) * pow(n, lam, ell) % ell
        n += 1
    for idx, v in dilated_eta(ell, ell, al, bound).items():
        out[idx] = (out.get(idx, 0) + v) % ell
    return out


# === checks ===


def compare_coeffs(label: str, coeffs, target: dict, bound: int, ell: int) -> list:
    """Every coefficient below bound equals the closed form (absent = 0)."""
    if len(coeffs) < bound:
        return [f"{label}: only {len(coeffs)} coefficients, need {bound}"]
    for i in range(bound):
        want = target.get(i, 0) % ell
        got = coeffs[i] % ell
        if got != want:
            return [f"{label}: coefficient {i} is {got}, closed form gives {want}"]
    return []


def compare_support(label: str, coeffs, target: dict, ell: int) -> list:
    """Like compare_coeffs over the whole series, for long sparse series."""
    for i in target:
        if i < len(coeffs) and coeffs[i] % ell != target[i] % ell:
            return [f"{label}: coefficient {i} is {coeffs[i]}, closed form gives {target[i]}"]
    for i, v in enumerate(coeffs):
        if v % ell and i not in target:
            return [f"{label}: coefficient {i} is {v}, closed form gives 0"]
    return []


def expected_report(case: str, ell: int, lam: int, r: int, a1: int, al: int) -> dict:
    """The report fields the paper's formulas give for a form of weight lam + 1/2."""
    return {
        "case": case,
        "a1": a1 % ell,
        "al": al % ell,
        "r_mod_24": r % 24,
        "lambda_mod": lam % (ell - 1),
        "hypothesis_ok": 2 * lam + 1 < ell * ell,
        "depth": certification_depth(lam, r),
    }


def check_report(label: str, report: dict, expected: dict) -> list:
    return [
        f"{label}: report {field} is {report.get(field)!r}, expected {want!r}"
        for field, want in expected.items()
        if report.get(field) != want
    ]


def check_hecke(label: str, p: int, ell: int, eps: int, verdict) -> list:
    """eps = +1 must hold; eps = -1 must fail unless p = -1 (mod ell)."""
    if eps == 1 and verdict is not True:
        return [f"{label}: T({p}^2) eigenvalue check returned {verdict!r}"]
    if eps == -1 and p % ell != ell - 1 and verdict is not False:
        return [f"{label}: T({p}^2) check with eps_p = -1 returned {verdict!r}"]
    return []


def check_shimura(label: str, t: int, values, a1: int, ell: int) -> list:
    """A_1(n) = a1 (12/n) n sigma_1(n) for ell not | n; A_t = 0 for non-square t.

    The lifted form is supported on squares, so for squarefree t > 1 every
    a(t m^2) vanishes.
    """
    for n, got in enumerate(values, start=1):
        if t == 1:
            if n % ell == 0:
                continue
            want = a1 * chi12(n) * n * sigma1(n) % ell
        else:
            want = 0
        if got % ell != want:
            return [f"{label}: A_{t}({n}) is {got}, expected {want}"]
    return []


def check_filtration(label: str, ell: int, k: int, w: int, wt: int, w2: int) -> list:
    """Filtration laws for f of weight k: w(f), w(theta f), w(f^2)."""
    problems = []
    if w > k or (k - w) % (ell - 1):
        problems.append(f"{label}: w(f) = {w} is not <= {k} and = {k} mod {ell - 1}")
    if wt > w + ell + 1:
        problems.append(f"{label}: w(theta f) = {wt} exceeds w + ell + 1 = {w + ell + 1}")
    if (wt == w + ell + 1) != (w % ell != 0):
        problems.append(f"{label}: w(theta f) = {wt} breaks the equality rule at w = {w}")
    if w2 != 2 * w:
        problems.append(f"{label}: w(f^2) = {w2}, expected {2 * w}")
    return problems


def check_refused(label: str, accepted: bool) -> list:
    return [f"{label}: a wrong weight accepted the form"] if accepted else []


def check_deviation(label: str, deviation: float) -> list:
    if not deviation < 1e-8:
        return [f"{label}: transformation-law deviation {deviation!r} >= 1e-8"]
    return []


def check_coordinates(label: str, got, want) -> list:
    if tuple(got) != tuple(want):
        return [f"{label}: coordinates {tuple(got)}, expected {tuple(want)}"]
    return []


# === inputs built apart from the program ===


def delta_integer_coeffs(n_terms: int) -> list:
    """Coefficients tau(1..n_terms) of Delta = q prod (1 - q^n)^24, over Z."""
    c = [1] + [0] * (n_terms - 1)  # prod (1 - q^n)^24 up to q^(n_terms-1)
    for k in range(1, n_terms):
        for _ in range(24):
            for i in range(n_terms - 1, k - 1, -1):
                c[i] -= c[i - k]
    return c


def square_coeffs(c: list) -> list:
    n = len(c)
    return [sum(c[i] * c[m - i] for i in range(m + 1)) for m in range(n)]


def unimodular(rng, bound: int) -> tuple:
    """A random [[a, b], [c, d]] of determinant 1 with entries in [-bound, bound]."""
    while True:
        c = rng.randint(-bound, bound)
        d = rng.randint(-bound, bound)
        if (c, d) == (0, 0):
            continue
        # extended Euclid: x d - y c = g
        old_r, r, old_x, x, old_y, y = d, c, 1, 0, 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_x, x = x, old_x - q * x
            old_y, y = y, old_y - q * y
        if abs(old_r) != 1:
            continue
        a, b = old_x * old_r, -old_y * old_r  # a d - b c = 1
        t = rng.randint(-2, 2)
        a, b = a + t * c, b + t * d
        if abs(a) <= bound and abs(b) <= bound:
            return a, b, c, d
