"""The benchmark's own tests: each check passes etakit's real output and
flags a deliberately wrong answer.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import random

import checks
import run
import tracing
import workloads
from etakit import (
    classify,
    filtration,
    hecke_eigenvalue_check,
    miller_basis,
    shimura_coeffs,
    theta_lift,
    theta_op,
    eta_form,
)
from etakit.cli import evaluate_recipe


def _perturbed(coeffs, index, ell):
    out = list(coeffs)
    out[index] = (out[index] + 1) % ell
    return out


def test_chi12_and_sigma1():
    assert [checks.chi12(n) for n in range(1, 14)] == [1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0, 1]
    assert [checks.sigma1(n) for n in (1, 6, 12, 13)] == [1, 12, 28, 14]


def test_delta_coefficients_are_ramanujan_tau():
    assert checks.delta_integer_coeffs(6) == [1, -24, 252, -1472, 4830, -6048]
    assert checks.square_coeffs([1, -24, 252]) == [1, -48, 1080]


def test_unimodular_has_determinant_one():
    rng = random.Random(5)
    for _ in range(200):
        a, b, c, d = checks.unimodular(rng, 50)
        assert a * d - b * c == 1 and max(map(abs, (a, b, c, d))) <= 50


def test_theta_closed_form_and_report_fields():
    ell, k, c = 7, 2, 3
    form = evaluate_recipe(f"{c}*theta^{k}(eta)", ell)
    report = classify(form).to_dict()
    lam = k * (ell + 1)
    want = checks.expected_report("1", ell, lam, 1, c * pow(24, -k, ell), 0)
    assert checks.check_report("t", report, want) == []
    for field, wrong in (("a1", (want["a1"] + 1) % ell), ("case", "2"), ("hypothesis_ok", not want["hypothesis_ok"]),
                         ("depth", want["depth"] + 24)):
        assert checks.check_report("t", report, dict(want, **{field: wrong}))
    depth = want["depth"]
    target = checks.theta_iterate_of_eta(ell, k, c, depth)
    assert checks.compare_coeffs("t", form.series.coeffs, target, depth, ell) == []
    assert checks.compare_coeffs("t", _perturbed(form.series.coeffs, 25, ell), target, depth, ell)
    assert checks.compare_coeffs("t", form.series.coeffs[: depth - 1], target, depth, ell)


def test_dilated_eta_closed_forms():
    for recipe, ell, m, case in (("4*eta^11", 11, 11, "2"), ("eta^25", 5, 25, "unclassified"),
                                 ("2*udesc(eta^7)", 7, 1, "1")):
        form = evaluate_recipe(recipe, ell)
        c = int(recipe.split("*")[0]) if "*" in recipe else 1
        depth = checks.certification_depth(form.lam, form.r)
        target = checks.dilated_eta(ell, m, c, depth)
        assert classify(form).case == case
        assert checks.compare_coeffs(recipe, form.series.coeffs, target, depth, ell) == []
        assert checks.compare_coeffs(recipe, form.series.coeffs, checks.dilated_eta(ell, m, c + 1, depth),
                                     depth, ell)


def test_case3_target_matches_the_corpus_example():
    ell, j = 73, 18
    form = evaluate_recipe(f"{pow(24, 2 * j, ell)}*theta^{j}(eta) + eta^{ell}", ell)
    lam, a1 = j * (ell + 1), pow(24, j, ell)
    want = checks.expected_report("3", ell, lam, 1, a1, 1)
    assert checks.check_report("c3", classify(form).to_dict(), want) == []
    depth = want["depth"]
    assert checks.compare_coeffs("c3", form.series.coeffs, checks.case3_target(ell, lam, a1, 1, depth),
                                 depth, ell) == []
    assert checks.compare_coeffs("c3", form.series.coeffs, checks.case3_target(ell, lam, a1, 2, depth),
                                 depth, ell)
    assert checks.compare_coeffs("c3", _perturbed(form.series.coeffs, 5 * 5, ell),
                                 checks.case3_target(ell, lam, a1, 1, depth), depth, ell)


def test_hecke_and_shimura_checks():
    ell, prec = 7, 6000
    g = theta_lift(eta_form(prec, ell))
    for p in (5, 11, 13):
        assert checks.check_hecke("h", p, ell, 1, hecke_eigenvalue_check(g, p)) == []
        assert checks.check_hecke("h", p, ell, -1, hecke_eigenvalue_check(g, p, -1)) == []
        assert checks.check_hecke("h", p, ell, 1, False)
    assert checks.check_hecke("h", 5, ell, -1, True)  # 5 != -1 mod 7: must fail
    assert checks.check_hecke("h", 13, ell, -1, True) == []  # 13 = -1 mod 7: no claim
    a1 = pow(24, -1, ell)
    values = shimura_coeffs(g.series, 1, g.lam, 70)
    assert checks.check_shimura("s", 1, values, a1, ell) == []
    assert checks.check_shimura("s", 1, values, 2 * a1, ell)
    assert checks.check_shimura("s", 1, _perturbed(values, 4, ell), a1, ell)
    assert checks.check_shimura("s", 5, shimura_coeffs(g.series, 5, g.lam, 30), a1, ell) == []
    assert checks.check_shimura("s", 5, [0, 0, 1], a1, ell)
    long = theta_lift(eta_form(2000, ell)).series
    target = checks.theta_iterate_of_eta(ell, 1, 1, 2000)
    assert checks.compare_support("l", long.coeffs, target, ell) == []
    assert checks.compare_support("l", _perturbed(long.coeffs, 24 * 7, ell), target, ell)
    assert checks.compare_support("l", long.coeffs, checks.theta_iterate_of_eta(ell, 1, 2, 2000), ell)


def test_filtration_and_refusal_checks():
    ell, k = 11, 24
    prec = 24 * (2 * k // 12 + ell) + 49
    basis = miller_basis(k, ell, prec, "S")
    f = basis.elements[0].scale(3) + basis.elements[1].scale(5)
    w = filtration(f, k)
    wt = filtration(theta_op(f), k + ell + 1)
    w2 = filtration((f * f).truncate(prec), 2 * k)
    assert checks.check_filtration("f", ell, k, w, wt, w2) == []
    assert checks.check_filtration("f", ell, k, w, wt, w2 + ell - 1)
    assert checks.check_filtration("f", ell, k, w + 2, wt, 2 * w + 4)
    assert checks.check_filtration("f", ell, k, w, wt - (ell - 1), w2)  # equality rule
    assert checks.check_filtration("f", ell, k, w, wt + ell - 1, w2)
    assert checks.check_refused("r", False) == [] and checks.check_refused("r", True)
    assert checks.check_deviation("m", 1e-12) == []
    assert checks.check_deviation("m", 1e-3) and checks.check_deviation("m", float("nan"))
    assert checks.check_coordinates("c", (0, 1), (0, 1)) == []
    assert checks.check_coordinates("c", (1, 0), (0, 1))


def test_round_counts_raised_and_refused_operations():
    rnd = workloads.Round()
    assert rnd.timed("ok", lambda: 5) == 5
    assert rnd.timed("boom", lambda: 1 // 0) is None
    rnd.timed("refused", lambda: None)
    rnd.fail_last("refused on purpose")
    assert [failed for _k, _s, failed in rnd.ops] == [False, True, True]
    assert len(rnd.failures) == 2


def test_small_form_specs_are_distinct_and_seeded():
    specs = workloads.small_form_specs(1)
    assert specs == workloads.small_form_specs(1) != workloads.small_form_specs(2)
    assert len({(s[1], s[2]) for s in specs}) == len(specs)
    assert len(specs) == len(workloads.small_form_specs(2))


def test_benchmark_json_lists_the_metrics_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_tracer_spans_and_basis_hits():
    tracer = tracing.Tracer()
    tracer.install()
    from etakit import cli

    tracer.active = True
    try:
        cli.evaluate_recipe("theta(eta)", 5)
        cli.evaluate_recipe("2*theta(eta)", 5)
    finally:
        tracer.active = False
    metrics = tracer.layer_metrics()
    assert metrics["cli.parse_recipe_s"] > 0 and metrics["qseries.construct_calls"] > 0
    assert metrics["spaces.basis_hits"] > 0
    assert metrics["spaces.basis_calls"] == metrics["spaces.basis_hits"] + metrics[
        "spaces.miller_basis_builds"
    ] + metrics["spaces.eta_space_basis_builds"]
    assert all(seconds >= 0 for seconds, _calls in tracer.self_times().values())

