"""The four workloads: inputs generated from a seed, timed calls, checks.

Each workload function runs one round in the current interpreter: it
generates its inputs from the seed (the same seed gives the same
inputs), calls into etakit through ``Round.timed`` and checks every
output against the oracles in ``checks``.  The number and kind of
operations in a round do not depend on the seed, so a round always
attempts the same operations.  etakit is imported inside the functions
so that importing this module costs nothing before set-up is timed.
"""

from __future__ import annotations

import collections
import math
import random
import statistics
from time import perf_counter

import checks

# case 3 at ell = 73 (j = 18) and ell = 97 (j = 24): 24^(2j) theta^j(eta) + eta^ell
CASE3 = ((73, 18), (97, 24))

# halfint-highprec: precision of the lifted series (1/24-units) and range of ell and p
HIGHPREC = 200_000
HIGHPREC_PRIMES = checks.primes_between(5, 43)
SHIMURA_T = (1, 5, 7, 11)

# small-forms: primes, theta iterates, distinct scalars per (ell, kind)
SMALL_PRIMES = checks.primes_between(5, 97)
SMALL_THETA_K = (1, 2, 3)
SMALL_SCALARS = 4
SMALL_ETA_SQUARE_PRIMES = (5, 7, 11, 13)

# integral-weight: random cusp forms per ell, their weights, multiplier matrices
INTEGRAL_PRIMES = checks.primes_between(5, 43)
INTEGRAL_FORMS_PER_ELL = 24
CUSP_WEIGHTS = tuple(k for k in range(12, 49, 2) if k != 14)
MATRICES = 2000
MATRIX_BOUND = 50

# Named faults: operations on fixed inputs that fail on the current program.
FAULT_ELL = 2**31 - 1
FAULT_PREC = 193
FAULT_SWEEP = (17, 40, 17)  # cli.filtration_sweep(ell, count, seed)


class Round:
    """Timed operations of one round and the problems found in their outputs."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.ops = []  # [kind, seconds, failed]
        self.failures = []  # why each failed operation failed
        self.problems = []  # wrong answers among operations that did not fail

    def timed(self, kind, fn):
        """Run fn() as one operation; an exception marks it failed and yields None."""
        if self.tracer is not None:
            self.tracer.active = True
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising operation is counted, not fatal
            self.ops.append([kind, perf_counter() - start, True])
            self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        finally:
            if self.tracer is not None:
                self.tracer.active = False
        self.ops.append([kind, perf_counter() - start, False])
        return result

    def fail_last(self, why):
        self.ops[-1][2] = True
        self.failures.append(f"{self.ops[-1][0]}: {why}")

    def check(self, problems):
        self.problems.extend(problems)


def case3_large_ell(seed, rnd):
    rng = random.Random(seed)
    for ell, j in CASE3:
        c1, c2 = rng.randrange(1, ell), rng.randrange(1, ell)
        recipe = f"{c1 * pow(24, 2 * j, ell) % ell}*theta^{j}(eta) + {c2}*eta^{ell}"
        out = rnd.timed(f"case3_ell{ell}", lambda: _evaluate_and_classify(recipe, ell))
        if out is None:
            continue
        form, report = out
        lam, a1 = j * (ell + 1), c1 * pow(24, j, ell)
        want = checks.expected_report("3", ell, lam, 1, a1, c2)
        label = f"case3 ell={ell}"
        rnd.check(checks.check_report(label, report.to_dict(), want))
        rnd.check(
            checks.compare_coeffs(
                label,
                form.series.coeffs,
                checks.case3_target(ell, lam, a1, c2, want["depth"]),
                want["depth"],
                ell,
            )
        )


def _evaluate_and_classify(recipe, ell):
    from etakit import classify
    from etakit.cli import evaluate_recipe

    form = evaluate_recipe(recipe, ell)
    return form, classify(form)


def halfint_highprec(seed, rnd):
    from etakit import certify, eta_series, hecke_eigenvalue_check, shimura_coeffs, theta_lift

    rng = random.Random(seed)
    ells = list(HIGHPREC_PRIMES)
    rng.shuffle(ells)
    for ell in ells:
        c = rng.randrange(1, ell)
        lifted = rnd.timed(
            "lift", lambda: theta_lift(certify(eta_series(HIGHPREC, ell).scale(c), 0, 1))
        )
        if lifted is None:
            continue
        a1 = c * pow(24, -1, ell) % ell
        label = f"lift ell={ell}"
        if lifted.lam != ell + 1 or lifted.series.prec != HIGHPREC:
            rnd.check([f"{label}: got lam={lifted.lam}, prec={lifted.series.prec}"])
        rnd.check(
            checks.compare_support(
                label, lifted.series.coeffs, checks.theta_iterate_of_eta(ell, 1, c, HIGHPREC), ell
            )
        )
        hecke_primes = [p for p in HIGHPREC_PRIMES if p != ell and p % ell not in (0, 1)]
        rng.shuffle(hecke_primes)
        for p in hecke_primes:
            for eps in (1, -1) if p % ell != ell - 1 else (1,):
                verdict = rnd.timed("hecke", lambda: hecke_eigenvalue_check(lifted, p, eps))
                if verdict is not None:
                    rnd.check(checks.check_hecke(f"hecke ell={ell}", p, ell, eps, verdict))
        for t in SHIMURA_T:
            n_max = math.isqrt((HIGHPREC - 1) // t)
            while t * n_max * n_max >= HIGHPREC:
                n_max -= 1
            values = rnd.timed("shimura", lambda: shimura_coeffs(lifted.series, t, lifted.lam, n_max))
            if values is not None:
                rnd.check(checks.check_shimura(f"shimura ell={ell}", t, values, a1, ell))


def small_form_specs(seed):
    """(kind, ell, recipe, lam, r, case, a1, al, closed form) for every small form."""
    rng = random.Random(seed)
    specs = []
    for ell in SMALL_PRIMES:
        inv24 = pow(24, -1, ell)
        for kind in [f"theta{k}" for k in SMALL_THETA_K] + ["eta_ell", "udesc", "eta"]:
            for c in rng.sample(range(1, ell), SMALL_SCALARS):
                if kind.startswith("theta"):
                    k = int(kind[5:])
                    spec = (f"{c}*theta^{k}(eta)", k * (ell + 1), 1, "1", c * pow(inv24, k, ell), 0,
                            ("theta", k, c))
                elif kind == "eta_ell":
                    spec = (f"{c}*eta^{ell}", (ell - 1) // 2, ell, "2", 0, c, ("dilate", ell, c))
                elif kind == "udesc":
                    spec = (f"{c}*udesc(eta^{ell})", 0, 1, "1", c, 0, ("dilate", 1, c))
                else:
                    spec = (f"{c}*eta", 0, 1, "1", c, 0, ("dilate", 1, c))
                specs.append((kind, ell) + spec)
    for ell in SMALL_ETA_SQUARE_PRIMES:
        specs.append(("eta_ell2", ell, f"eta^{ell * ell}", (ell * ell - 1) // 2, ell * ell,
                      "unclassified", 0, 0, ("dilate", ell * ell, 1)))
    rng.shuffle(specs)
    return specs


def small_forms(seed, rnd):
    for kind, ell, recipe, lam, r, case, a1, al, closed in small_form_specs(seed):
        out = rnd.timed("form", lambda: _evaluate_and_classify(recipe, ell))
        if out is None:
            continue
        form, report = out
        want = checks.expected_report(case, ell, lam, r, a1, al)
        label = f"{recipe} at ell={ell}"
        if form.lam != lam:
            rnd.check([f"{label}: lam is {form.lam}, expected {lam}"])
        rnd.check(checks.check_report(label, report.to_dict(), want))
        depth = want["depth"]
        if closed[0] == "theta":
            target = checks.theta_iterate_of_eta(ell, closed[1], closed[2], depth)
        else:
            target = checks.dilated_eta(ell, closed[1], closed[2], depth)
        rnd.check(checks.compare_coeffs(label, form.series.coeffs, target, depth, ell))


def integral_weight(seed, rnd):
    from etakit import (
        MembershipCertificate,
        QExp24,
        UnimodularMatrix,
        coordinates,
        filtration,
        miller_basis,
        theta_op,
        verify_eta_transform,
    )
    from etakit.cli import filtration_sweep

    rng = random.Random(seed)
    forms = []
    for ell in INTEGRAL_PRIMES:
        for _ in range(INTEGRAL_FORMS_PER_ELL):
            k = rng.choice(CUSP_WEIGHTS)
            forms.append((ell, k, [rng.randrange(ell) for _ in range(k // 12 + 1)]))
    rng.shuffle(forms)
    for ell, k, coords in forms:
        # Inputs: a random member of S_k, built (untimed) from the program's cusp basis.
        prec = 24 * (2 * k // 12 + ell) + 49
        basis = miller_basis(k, ell, prec, "S")
        coords = coords[: basis.dim]
        if not any(coords):
            coords[0] = 1
        f = QExp24.zero(prec, ell, 0)
        for c, elem in zip(coords, basis.elements):
            f = f + elem.scale(c)
        k_bad = k + 2  # never = k mod (ell - 1), since ell - 1 >= 4

        def op():
            w = filtration(f, k)
            wt = filtration(theta_op(f), k + ell + 1)
            w2 = filtration((f * f).truncate(prec), 2 * k)
            refusal = coordinates(f, miller_basis(k_bad, ell, prec, "M"), prec)
            return w, wt, w2, refusal

        out = rnd.timed("filtration", op)
        if out is None:
            continue
        w, wt, w2, refusal = out
        label = f"filtration ell={ell} k={k}"
        rnd.check(checks.check_filtration(label, ell, k, w, wt, w2))
        rnd.check(checks.check_refused(f"{label} k'={k_bad}", isinstance(refusal, MembershipCertificate)))

    for _ in range(MATRICES):
        a, b, c, d = checks.unimodular(rng, MATRIX_BOUND)
        gamma = UnimodularMatrix(a, b, c, d)
        dev = rnd.timed("multiplier", lambda: verify_eta_transform(gamma, 1j))
        if dev is not None:
            rnd.check(checks.check_deviation(f"multiplier {(a, b, c, d)}", dev))

    # Named faults, on inputs that do not depend on the seed.
    tau = checks.delta_integer_coeffs(FAULT_PREC // 24 + 1)
    for name, k, series, want in (
        ("fault_delta", 12, tau, (1,)),
        ("fault_delta2", 24, [0] + checks.square_coeffs(tau)[:-1], (0, 1)),
    ):
        coeffs = [0] * FAULT_PREC
        for m, v in enumerate(series):
            if 24 * (m + 1) < FAULT_PREC:
                coeffs[24 * (m + 1)] = v
        g = QExp24(coeffs, FAULT_PREC, FAULT_ELL, 0)
        result = rnd.timed(name, lambda: coordinates(g, miller_basis(k, FAULT_ELL, FAULT_PREC, "S"), FAULT_PREC))
        if result is None:
            continue
        if isinstance(result, MembershipCertificate):
            rnd.check(checks.check_coordinates(name, result.coordinates, want))
        else:
            rnd.fail_last(f"weight-{k} cusp form refused at ell = 2^31 - 1: {result}")
    sweep = rnd.timed("fault_sweep17", lambda: filtration_sweep(*FAULT_SWEEP))
    if sweep:
        rnd.fail_last("; ".join(sweep))


# name -> (round function, kind of the main operation behind op_p50_ms)
WORKLOADS = {
    "case3-large-ell": (case3_large_ell, "case3_ell97"),
    "halfint-highprec": (halfint_highprec, "hecke"),
    "small-forms": (small_forms, "form"),
    "integral-weight": (integral_weight, "filtration"),
}


def named_metrics(workload, mean):
    """The workload's own metrics, each with its unit.

    mean is [(kind, seconds)], every operation of a round with its mean
    latency over the rounds of the run.
    """
    by_kind = collections.defaultdict(list)
    for kind, seconds in mean:
        by_kind[kind].append(seconds)

    def per_second(kind):
        return len(by_kind[kind]) / sum(by_kind[kind])

    if workload == "case3-large-ell":
        return {f"case3_ell{ell}_s": (sum(by_kind[f"case3_ell{ell}"]), "s") for ell, _j in CASE3}
    if workload == "halfint-highprec":
        return {
            "highprec_lift_s": (sum(by_kind["lift"]), "s"),
            "hecke_checks_per_s": (per_second("hecke"), "checks/s"),
        }
    if workload == "small-forms":
        forms = by_kind["form"]
        return {
            "small_forms_per_s": (per_second("form"), "forms/s"),
            "small_form_p50_ms": (1e3 * statistics.median(forms), "ms"),
            # p98: of the 556 forms of a round, 11 lie beyond it
            "small_form_p98_ms": (1e3 * statistics.quantiles(forms, n=100)[97], "ms"),
        }
    return {
        "filtration_forms_per_s": (per_second("filtration"), "forms/s"),
        "multiplier_checks_per_s": (per_second("multiplier"), "matrices/s"),
    }
