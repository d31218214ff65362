"""Acceptance suite: twelve end-to-end checks with frozen expectations.

Each test prints one PASS line on success; run with -v to get the
per-criterion verdict from pytest itself.  Expected values are frozen
here, not recomputed from the library under test.
"""

import math
import random
import time
from importlib import resources

from sympy import divisor_sigma

from etakit.qseries import (
    QExp24,
    eta_series,
    kronecker,
    theta_op,
    v_op,
)
from etakit.halfint import (
    canonical_t1,
    certify,
    eta_form,
    hecke_eigenvalue_check,
    shimura_coeffs,
    theta_lift,
)
from etakit.classify import check_two_classes, classify
from etakit.cli import (
    _exit_for_case,
    evaluate_recipe,
    filtration_sweep,
    main,
    multiplier_sweep,
)
from etakit.numeric import epsilon_identities

from oracles import shimura_sum_oracle

# a(1) of the k-fold theta lift of eta is inv24^k; frozen per (ell, k)
A1_TABLE = {
    5: (4, 1, 4),
    7: (5, 4, 6),
    11: (6, 3, 7),
    13: (6, 10, 8),
}


def test_criterion_01_case1_reproduction():
    for ell in (5, 7, 11, 13):
        for k in (1, 2, 3):
            t0 = time.perf_counter()
            lam = k * (ell + 1)
            depth = 24 * (lam // 12 + 1) + 1
            g = eta_form(depth + 24, ell)
            for _ in range(k):
                g = theta_lift(g)
            assert g.lam == lam and g.r == 1
            report = classify(g)
            assert report.case == "1"
            assert report.a1 == A1_TABLE[ell][k - 1]
            assert report.lambda_mod == 2 * k % (ell - 1)
            # 24^k f has the closed coefficient law (12/n) n^(2k) at n^2
            scaled = g.series.scale(pow(24, k, ell))
            expected = [0] * report.depth
            n = 1
            while n * n < report.depth:
                expected[n * n] = kronecker(12, n) * pow(n, 2 * k, ell) % ell
                n += 1
            assert list(scaled.coeffs[: report.depth]) == expected
            elapsed = time.perf_counter() - t0
            assert elapsed < 5.0, f"ell={ell} k={k} took {elapsed:.2f}s"
    print("criterion 01 (case-1 reproduction): PASS")


def test_criterion_02_case2_reproduction():
    t0 = time.perf_counter()
    for ell in (5, 7, 11, 13):
        form = evaluate_recipe(f"eta^{ell}", ell)
        report = classify(form)
        assert report.case == "2"
        assert report.a1 == 0 and report.al == 1
        assert report.r_mod_24 == ell % 24
        assert report.lambda_mod == (ell - 1) // 2
        dilated = v_op(eta_series(form.series.prec, ell), ell)
        joint = min(form.series.prec, dilated.prec)
        assert form.series.first_difference(dilated, joint) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print("criterion 02 (case-2 reproduction): PASS")


def test_criterion_03_case3_at_73():
    t0 = time.perf_counter()
    form = evaluate_recipe("24^36*theta^18(eta) + eta^73", 73, prec=3072)
    assert form.series.prec >= 3000
    report = classify(form)
    assert report.case == "3"
    assert report.a1 == 72 and report.a1 != 0  # 24^18 mod 73
    assert report.al == 1
    assert report.lambda_mod == 36 == (73 - 1) // 2
    assert report.r_mod_24 == 1 == 73 % 24
    assert report.depth == 2689
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print("criterion 03 (case-3 at ell=73): PASS")


def test_criterion_04_sharpness():
    form = evaluate_recipe("eta^25", 5)
    assert 2 * form.lam + 1 == 25  # lam + 1/2 = ell^2 / 2 exactly
    report = classify(form)
    assert report.case == "unclassified"
    assert report.hypothesis_ok is False
    assert check_two_classes(form.series).passed  # eta^25 = eta(25 z) mod 5: every index a square
    assert all(math.isqrt(n) ** 2 == n for n in form.series.support())
    assert _exit_for_case(report.case) == 3
    path = resources.files("etakit") / "scenarios" / "sharpness-eta-25.scenario"
    assert main(["classify", "--recipe", str(path)]) == 3
    print("criterion 04 (sharpness of the lambda bound): PASS")


def test_criterion_05_hecke_eigenvalue_congruence():
    t0 = time.perf_counter()
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    checked = 0
    for ell in (5, 7, 11):
        g = theta_lift(eta_form(96000, ell))
        for p in primes:
            if p == ell or p % ell in (0, 1):
                continue
            assert hecke_eigenvalue_check(g, p), f"ell={ell} p={p}"
            checked += 1
    assert checked == 23
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print("criterion 05 (Hecke eigenvalue congruence): PASS")


def test_criterion_06_descent():
    for ell in (5, 7, 11, 13):
        lam = (ell - 1) // 2
        descended = evaluate_recipe(f"udesc(eta^{ell})", ell)
        assert descended.lam == 0 and descended.r == 1
        assert descended.series == eta_series(descended.series.prec, ell)
        # the half-integral weight bound holds with equality here
        assert ell * (2 * descended.lam + 1) == 2 * lam + 1
    print("criterion 06 (U_ell descent collapses eta^ell): PASS")


def test_criterion_07_filtration_laws():
    for ell in (5, 7):
        failures = filtration_sweep(ell, count=25, seed=2024)
        assert failures == [], failures
    print("criterion 07 (filtration laws, 50 random cusp forms): PASS")


def test_criterion_08_theta_projector():
    rng = random.Random(88)
    prec = 24 * 150
    for trial in range(100):
        ell, r = (5, 7, 11, 13)[trial % 4], rng.randrange(24)
        f = QExp24([rng.randrange(ell) if n % 24 == r else 0 for n in range(prec)], prec, ell, r)
        g = f
        for _ in range(ell - 1):
            g = theta_op(g)
        for n in range(prec):
            want = 0 if n % ell == 0 else f.coeffs[n]
            assert g.coeffs[n] == want
    print("criterion 08 (theta^(ell-1) projector): PASS")


def test_criterion_09_shimura_oracle():
    rng = random.Random(4096)
    prec = 27501  # above 11 * 50^2
    for trial in range(20):
        ell = (5, 7, 11, 13)[trial % 4]
        lam = rng.randrange(1, 9)
        for t in (1, 5, 7, 11):
            # a series on one of the classes of t m^2: t, 4t, 9t, 16t, 0 or 12t mod 24
            r = rng.choice(sorted({t * m * m % 24 for m in range(12)}))
            coeffs = [rng.randrange(ell) if n % 24 == r else 0 for n in range(prec)]
            f = QExp24(coeffs, prec, ell, r)
            got = shimura_coeffs(f, t, lam, 50)
            for n in range(1, 51):
                assert got[n - 1] == shimura_sum_oracle(coeffs, t, lam, n, ell)
    # divisor-sum congruence on theta-lifted eta: b(n) = a1 (12/n) n sigma_1(n)
    for ell in (5, 7, 11):
        g = theta_lift(eta_form(2601, ell))
        a1 = g.series.coeff(1)
        got = shimura_coeffs(g.series, 1, g.lam, 50)
        for n in range(1, 51):
            if n % ell == 0:
                continue
            want = a1 * kronecker(12, n) * n * int(divisor_sigma(n, 1)) % ell
            assert got[n - 1] == want, f"ell={ell} n={n}"
    print("criterion 09 (Shimura coefficient oracle): PASS")


def test_criterion_10_multiplier_numerics():
    t0 = time.perf_counter()
    result = multiplier_sweep(count=100, seed=2024)
    assert result["count"] == 100
    assert result["eta_max_deviation"] < 1e-8
    assert result["epsilon_identities"] == "pass"
    assert "nu_24th_power_exact" not in result  # a constant that checked nothing
    assert epsilon_identities(99) is None  # exhaustive over odd d <= 99
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print("criterion 10 (multiplier numerics): PASS")


def test_criterion_11_odd_lambda_pathway():
    form = certify(eta_series(60, 7) ** 7, 3, 7)
    assert form.lam % 2 == 1
    assert theta_op(form.series).is_zero()
    print("criterion 11 (odd lambda kills theta image): PASS")


def test_criterion_12_small_lambda_collapse():
    for ell in (5, 7, 11, 13):
        for c in range(1, ell):
            g = certify(eta_series(60, ell).scale(c), 0, 1)
            report = classify(g)
            assert report.case == "1"
            assert report.a1 == c and report.al == 0
            # c * T1(0) is c * eta, compared to the certificate's depth
            assert report.depth == g.certificate.depth
            congruence = report.checks[-1]
            assert congruence.name == "congruence" and congruence.passed
            assert canonical_t1(0, ell, report.depth) == eta_series(report.depth, ell)
    print("criterion 12 (lambda' = 0 forms are c*eta): PASS")
