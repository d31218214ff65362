"""Tests for recipes, scenario files, verification sweeps, and the CLI."""

import io
import json
import math
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from etakit import cli, halfint, qseries, spaces
from etakit.halfint import certify, theta_lift
from etakit.qseries import eta_series, series_from_text, u_op
from etakit.spaces import dims, membership_depth, miller_basis
from etakit.cli import (
    _exit_for_case,
    _parser,
    _walk,
    evaluate_recipe,
    filtration_sweep,
    load_scenarios,
    main,
    multiplier_sweep,
    parse_recipe,
    parse_scenario,
    run_scenario,
)

REPO = Path(__file__).resolve().parents[1]


# === recipe grammar ===


def test_parse_recipe_atoms():
    assert parse_recipe("eta") == ("eta", 1)
    assert parse_recipe("eta^5") == ("eta", 5)
    assert parse_recipe("theta(eta)") == ("theta", 1, ("eta", 1))
    assert parse_recipe("theta^3(eta^7)") == ("theta", 3, ("eta", 7))
    assert parse_recipe("udesc(eta^5)") == ("udesc", ("eta", 5))
    assert parse_recipe(" theta ( eta ) ") == ("theta", 1, ("eta", 1))


def test_parse_recipe_compound():
    ast = parse_recipe("24^36*theta^18(eta) + eta^73")
    assert ast == (
        "sum",
        [("scale", 24, 36, ("theta", 18, ("eta", 1))), ("eta", 73)],
    )
    assert parse_recipe("2*eta") == ("scale", 2, 1, ("eta", 1))


def test_parse_recipe_errors():
    for bad in ("", "eta^", "zeta", "theta(eta", "eta)", "eta eta", "eta %"):
        with pytest.raises((ValueError, IndexError)):
            parse_recipe(bad)


def test_parse_recipe_tokens():
    # tabs and newlines are whitespace; one ^INT rule after an int, eta and theta
    assert parse_recipe("theta\t(\neta^5 )\n") == ("theta", 1, ("eta", 5))
    assert parse_recipe("2^3*eta") == ("scale", 2, 3, ("eta", 1))
    assert parse_recipe("theta^2(eta)") == ("theta", 2, ("eta", 1))
    assert parse_recipe("7*eta + 3^2*theta(eta^7)") == (
        "sum", [("scale", 7, 1, ("eta", 1)), ("scale", 3, 2, ("theta", 1, ("eta", 7)))])
    with pytest.raises(ValueError, match="unknown operation 'ηta'"):
        parse_recipe("ηta")
    with pytest.raises(ValueError, match="bad character '%'"):
        parse_recipe("2%eta")
    for bad in ("eta²", "eta^²", "²*eta", "theta^(eta)", "2^*eta"):
        with pytest.raises(ValueError):
            parse_recipe(bad)


def _nested(op, depth):
    return op * depth + "eta" + ")" * depth


def test_parse_recipe_nests_to_the_bound():
    depth = cli.RECIPE_MAX_DEPTH
    ast = parse_recipe(_nested("udesc(", depth))
    for _ in range(depth):
        assert ast[0] == "udesc"
        ast = ast[1]
    assert ast == ("eta", 1)
    # the count is of open levels, not of operations: siblings do not add up
    assert parse_recipe(" + ".join([_nested("theta(", depth)] * 3))[0] == "sum"
    with pytest.raises(ValueError, match="nests deeper"):
        parse_recipe("udesc(" + _nested("theta^2(", depth) + ")")


@pytest.mark.parametrize("op", ["theta(", "udesc(", "theta^3("])
def test_cli_refuses_a_recipe_nested_past_the_bound(tmp_path, capsys, op):
    path = tmp_path / "deep.txt"
    path.write_text(_nested(op, cli.RECIPE_MAX_DEPTH + 1))
    assert main(["classify", "--recipe", str(path), "--ell", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: recipe nests deeper than {cli.RECIPE_MAX_DEPTH} operations\n"


def test_cli_classifies_a_recipe_at_the_bound(tmp_path, capsys):
    path = tmp_path / "deep.txt"
    path.write_text(_nested("theta(", cli.RECIPE_MAX_DEPTH))
    assert main(["classify", "--recipe", str(path), "--ell", "5"]) == 0
    captured = capsys.readouterr()
    assert "nests" not in captured.err
    assert json.loads(captured.out)["case"] == "1"


def test_module_refuses_a_400_deep_recipe_in_one_line(tmp_path):
    # 400 levels would overflow the interpreter's stack without the bound
    path = tmp_path / "deep.txt"
    path.write_text(_nested("theta(", 400))
    proc = subprocess.run(
        [sys.executable, "-m", "etakit.cli", "classify", "--recipe", str(path), "--ell", "5"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: recipe nests deeper than {cli.RECIPE_MAX_DEPTH} operations\n"


# === recipe evaluation ===


def test_evaluate_theta_recipe():
    form = evaluate_recipe("theta(eta)", 5)
    assert form.lam == 6 and form.r == 1
    assert form.series.coeff(1) == 4


def test_evaluate_eta_power():
    form = evaluate_recipe("eta^5", 5)
    assert form.lam == 2 and form.r == 5
    assert form.series.coeff(5) == 1


def test_evaluate_descent():
    form = evaluate_recipe("udesc(eta^5)", 5)
    assert form.lam == 0 and form.r == 1
    assert form.series == eta_series(form.series.prec, 5)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from((5, 7, 11, 13)),
    st.sampled_from((1, 5, 7, 11, 13, 17, 19, 23, 25)),
    st.integers(1, 4),
)
def test_descent_plan_is_the_evaluated_weight(ell, k, c):
    # eta^(ell*k) = V_ell(eta^k) (mod ell); for k > ell the weight class
    # holds lower candidates too, such as lam* = 0 for k = 25 at ell = 5
    text = f"udesc({c}*eta^{ell * k})"
    form = evaluate_recipe(text, ell)
    assert _walk(parse_recipe(text), ell)[:2] == (form.lam, form.r) == ((k - 1) // 2, k % 24)
    prec = form.series.prec
    assert form.series == (eta_series(prec, ell) ** k).truncate(prec).scale(c)


def test_corpus_plans_are_the_evaluated_weights():
    for sc in load_scenarios():
        if sc["expect"]["case"] == "refused":  # the negative control: the plan refuses it too
            with pytest.raises(ValueError, match="incompatible spaces"):
                _walk(parse_recipe(sc["recipe"]), sc["ell"])
            continue
        form = evaluate_recipe(sc["recipe"], sc["ell"], sc["prec"])
        assert _walk(parse_recipe(sc["recipe"]), sc["ell"])[:2] == (form.lam, form.r), sc["name"]


@pytest.mark.parametrize(
    "text, ell, weight",
    [
        # 5 = 0 (mod 5): the zero descent is certified at the top of its
        # class like any other descent, not at lam* = 0
        ("udesc(5*eta^35)", 5, (3, 7)),
        # theta kills V_29(eta^53); the udesc input theta(eta^1537) certifies
        # to depth 1609, deeper than the 870 = 29 * 29 + 29 the root's
        # precision gives it
        ("udesc(theta(eta^1537))", 29, (0, 5)),
    ],
)
def test_zero_descent_keeps_the_walked_weight(text, ell, weight):
    form = evaluate_recipe(text, ell)
    assert form.is_zero()
    assert (form.lam, form.r) == _walk(parse_recipe(text), ell)[:2] == weight


@pytest.mark.parametrize(
    "text, ell, certified",
    [
        # the 24 theta iterates, the scaling and both terms of the sum lie in
        # their spaces by construction: one certificate, at the root
        ("24^48*theta^24(eta) + eta^97", 97, [(2352, 1)]),
        # two: the descent's input eta^35, and its output, which is the root
        ("udesc(eta^35)", 5, [(17, 35), (3, 7)]),
    ],
)
def test_a_recipe_certifies_at_its_root_and_around_each_descent(monkeypatch, text, ell, certified):
    seen, real = [], halfint.eta_membership
    monkeypatch.setattr(
        halfint, "eta_membership",
        lambda f, lam, r, depth=None: seen.append((lam, r)) or real(f, lam, r, depth),
    )
    evaluate_recipe(text, ell)
    assert seen == certified


@st.composite
def _recipes(draw, ell: int, depth: int, sums: bool = True, scales: bool = True, m: int = 1):
    """A recipe over F_ell, and whether its form is supported on indices
    divisible by ell, which udesc needs.  A scalar binds to one factor, so
    it is put only in front of a recipe drawn with sums=False, and never in
    front of a scale.  Inside d descents every eta power carries the factor
    m = ell^d, so that each descent has a weight left to land in."""
    k = m * draw(st.sampled_from((1, 5, 7, 11, 25, 35)))
    shapes = ("eta", "eta_ell") + (("udesc", "udesc", "theta") if depth else ())
    shapes += ("scale",) if depth and scales else ()
    shape = draw(st.sampled_from(shapes + (("sum", "sum_theta") if depth and sums else ())))
    if shape == "eta":
        return f"eta^{k}", m > 1
    if shape == "eta_ell":  # eta^(ell k) = V_ell(eta^k) (mod ell)
        return f"eta^{ell * k}", True
    c = draw(st.sampled_from((1, 2, ell, 2 * ell, ell + 3)))  # ell and 2 ell are 0 (mod ell)
    single = shape in ("scale", "udesc")
    x, divisible = draw(_recipes(ell, depth - 1, sums=not single, scales=not single and shape != "sum",
                                 m=m * ell if shape == "udesc" else m))
    if shape == "udesc":
        return f"udesc({c if divisible or c % ell == 0 else ell}*{x})", False
    if shape == "scale":
        return f"{c}*{x}", divisible or c % ell == 0
    if shape == "theta":  # theta kills a form supported on multiples of ell
        return f"theta^{draw(st.integers(1, 2))}({x})", divisible
    if shape == "sum":
        return f"{x} + {c}*{x}", divisible
    # (ell - 1)/2 lifts add (ell^2 - 1)/2 = 0 (mod ell - 1) to lam: one weight class
    return f"{x} + {c}*theta^{(ell - 1) // 2}({x})", divisible


def _certified_walk(node, ell: int, need: int):
    """A node's form built as the walk builds it, with need as its leaf
    precision, where the node and each theta iterate are certified at the
    weight the walk gives them: each is in its space by construction."""
    lam, r, _ = _walk(node, ell)
    kind = node[0]
    if kind == "eta":
        series = (eta_series(need, ell) ** node[1]).truncate(need)
    elif kind == "theta":
        form = _certified_walk(node[2], ell, need)
        for _ in range(node[1]):  # each iterate certified, ell + 1 higher
            form = theta_lift(form)
        series = form.series
    elif kind == "udesc":
        least = membership_depth(*_walk(node[1], ell)[:2])[1] + 24
        inner = _certified_walk(node[1], ell, max(ell * need + ell, least))
        series = u_op(inner.series, ell)
    elif kind == "scale":
        series = _certified_walk(node[3], ell, need).series.scale(pow(node[1], node[2], ell))
    else:
        first, *rest = (_certified_walk(sub, ell, need).series for sub in node[1])
        series = sum(rest, first)
    return certify(series, lam, r)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from((5, 7, 11, 13)).flatmap(lambda ell: st.tuples(st.just(ell), _recipes(ell, 2))))
def test_walked_weight_is_the_evaluated_weight(ell_recipe):
    ell, (text, _) = ell_recipe
    try:
        lam, r, _ = _walk(parse_recipe(text), ell)
    except ValueError:  # no weight is left for some descent
        with pytest.raises(ValueError):
            evaluate_recipe(text, ell)
        return
    form = evaluate_recipe(text, ell)
    assert (form.lam, form.r) == (lam, r), text
    # certified at every node, the walk gives the same series and certificate
    need = membership_depth(lam, r)[1] + 24
    assert _certified_walk(parse_recipe(text), ell, need) == form, text


def test_evaluate_scale_and_sum():
    form = evaluate_recipe("3^2*eta", 5)
    assert form.series.coeff(1) == 9 % 5
    twice = evaluate_recipe("eta + eta", 5)
    assert twice.series.coeff(1) == 2


def test_evaluate_prec_argument():
    form = evaluate_recipe("eta", 5, prec=300)
    assert form.series.prec >= 300


def test_evaluate_rejects_bad_weights():
    with pytest.raises(ValueError):
        evaluate_recipe("eta^2", 5)  # gcd(2, 6) > 1
    with pytest.raises(ValueError):
        evaluate_recipe("udesc(eta)", 5)  # descent bound empty
    with pytest.raises(ValueError):
        evaluate_recipe("eta + eta^5", 5)  # incompatible multiplier classes
    for ell in (0, 1, 4):  # refused before the walk reduces mod ell - 1
        with pytest.raises(ValueError, match=f"^ell must be a prime >= 5, got {ell}$"):
            evaluate_recipe("udesc(eta^5) + udesc(eta^5)", ell)


# === scenario files ===


def test_parse_scenario_fields():
    text = """\
# comment line
name = demo
ell = 5
recipe = theta(eta)
prec = 200
source = somewhere
lambda = 3

expect.case = 1
expect.a1 = 4
expect.hypothesis_ok = true
expect.exit = 0
"""
    sc = parse_scenario(text)
    assert sc["name"] == "demo"
    assert sc["ell"] == 5
    assert sc["prec"] == 200
    assert sc["recipe"] == "theta(eta)"
    assert sc["lambda"] == "3"  # only ell and prec are read as integers
    assert sc["expect"] == {"case": "1", "a1": 4, "hypothesis_ok": True, "exit": 0}


def test_parse_scenario_errors():
    with pytest.raises(ValueError):
        parse_scenario("name = x\nell = 5\n")  # no recipe
    with pytest.raises(ValueError):
        parse_scenario("just some words\n")
    for flag in ("True", "yes", "1", ""):
        with pytest.raises(ValueError, match=f"got {flag!r}"):
            parse_scenario(f"name=x\nell=5\nrecipe=eta\nexpect.hypothesis_ok={flag}\n")


def test_shipped_scenarios_load():
    scenarios = load_scenarios()
    assert len(scenarios) == 23
    names = [sc["name"] for sc in scenarios]
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for sc in scenarios:
        assert sc["ell"] >= 5
        assert sc["recipe"]
        assert "case" in sc["expect"]
    assert "case1-theta-iter-5-k1" in names
    assert "case3-combined-73" in names
    assert "sharpness-eta-25" in names


def test_run_scenario_pass_and_fail():
    row = run_scenario(
        {"name": "t", "ell": 5, "recipe": "theta(eta)", "prec": None,
         "expect": {"case": "1", "a1": 4, "exit": 0}}
    )
    assert row["failures"] == []
    assert row["case"] == "1"
    row = run_scenario(
        {"name": "t", "ell": 5, "recipe": "theta(eta)", "prec": None,
         "expect": {"case": "2"}}
    )
    assert len(row["failures"]) == 1


def test_run_scenario_records_a_refusal_as_an_outcome():
    # a case-3-shaped sum at ell = 13, not 1 (mod 24): theta^3(eta) lies on
    # class 1 and eta^13 on class 13, so the sum is refused as classify
    # --recipe refuses it, with exit 2, and the suite goes on
    sc = {"name": "t", "ell": 13, "recipe": "24^6*theta^3(eta) + eta^13", "prec": None,
          "expect": {"case": "refused", "exit": 2}}
    row = run_scenario(sc)
    assert (row["case"], row["depth"], row["failures"]) == ("refused", "-", [])
    row = run_scenario({**sc, "expect": {"case": "3", "exit": 0}})
    assert row["failures"] == [
        "case: expected '3', got 'refused'",
        "exit: expected 0, got 2",
        "refused: sum terms live in incompatible spaces",
    ]
    row = run_scenario({**sc, "recipe": "24^6*theta^3(eta)"})
    assert row["case"] == "1" and len(row["failures"]) == 2


def test_exit_codes():
    assert _exit_for_case("1") == 0
    assert _exit_for_case("2") == 0
    assert _exit_for_case("3") == 0
    assert _exit_for_case("zero") == 0
    assert _exit_for_case("unclassified") == 3


# === verification sweeps ===


def test_multiplier_sweep_small():
    result = multiplier_sweep(count=25, seed=11)
    assert result["count"] == 25
    assert result["eta_max_deviation"] < 1e-8
    assert result["epsilon_identities"] == "pass"
    assert "nu_24th_power_exact" not in result  # a constant that checked nothing


@pytest.mark.parametrize(
    "c, d", [(0, 1), (0, -1), (1, 0), (-1, 0), (1, -7), (-1, 7), (-7, 3), (-50, -49), (49, 50)]
)
def test_complete_row_edge_cases(c, d):
    a, b = cli._complete_row(c, d)
    assert a * d - b * c == 1


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
       .filter(lambda cd: math.gcd(*cd) == 1))
def test_complete_row_is_unimodular(cd):
    c, d = cd
    a, b = cli._complete_row(c, d)
    assert a * d - b * c == 1


def test_multiplier_sweep_draws_bounded_unimodular_matrices():
    rng = random.Random(5)
    for _ in range(200):
        g = cli._random_unimodular(rng)
        assert max(abs(g.a), abs(g.b), abs(g.c), abs(g.d)) <= 50


def test_filtration_sweep_small():
    assert filtration_sweep(5, count=3, seed=1) == []


def test_filtration_sweep_refuses_wrong_weight_at_full_precision():
    # one of these forms (weight 34) agrees with a weight-36 form through
    # q^5; only a solve to the form's full precision refuses weight 36
    assert filtration_sweep(17, count=40, seed=17) == []


# === command surface ===


def test_cli_basis(capsys):
    code = main(["basis", "--weight", "12", "--ell", "5"])
    out = capsys.readouterr().out
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 2
    b = miller_basis_from_output(blocks, 5)
    ref = miller_basis(12, 5, b[0].prec)
    assert tuple(b) == ref.elements
    assert "weight=12" in blocks[0] and "index=0" in blocks[0]
    assert "kind=M" in blocks[1] and "index=1" in blocks[1]


def miller_basis_from_output(blocks, ell):
    return [series_from_text(block, ell) for block in blocks]


def test_cli_basis_cusp_kind(capsys):
    code = main(["basis", "--weight", "12", "--ell", "7", "--kind", "S"])
    out = capsys.readouterr().out
    assert code == 0
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 1
    assert "kind=S" in blocks[0]


def test_cli_basis_errors(capsys):
    assert main(["basis", "--weight", "12", "--ell", "5", "--prec", "10"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["basis", "--weight", "12", "--ell", "4"]) == 2


@pytest.mark.parametrize("args", [["--weight", "100000000"], ["--weight", "12", "--prec", "999999999999"]])
def test_cli_basis_refuses_past_the_precision_budget_before_building(capsys, monkeypatch, args):
    # either would build for minutes or more; with miller_basis refused, the
    # exit 2 proves the budget is checked before any basis is built
    def refuse(*args):
        raise AssertionError("a basis was built")

    monkeypatch.setattr(cli, "miller_basis", refuse)
    assert main(["basis", "--ell", "5", *args]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.endswith(f" is past the budget BASIS_MAX_PREC = {cli.BASIS_MAX_PREC}\n")


@pytest.mark.parametrize("weight, kind", [(12, "M"), (26, "S"), (50, "M")])
def test_basis_budget_holds_its_default_prec_and_refuses_one_more(capsys, monkeypatch, weight, kind):
    # weight k's default prec is 24 (dim M_k + k // 12 + 2) + 1: the budget set
    # to it lets the basis through, one below refuses the weight and the flag
    prec = 24 * (dims(weight)[0] + weight // 12 + 2) + 1
    base = ["basis", "--weight", str(weight), "--ell", "7", "--kind", kind]
    monkeypatch.setattr(cli, "BASIS_MAX_PREC", prec)
    assert main(base) == 0 and main([*base, "--prec", str(prec)]) == 0
    blocks = capsys.readouterr().out.strip().split("\n\n")
    assert f"prec={prec} " in blocks[0]
    monkeypatch.setattr(cli, "BASIS_MAX_PREC", prec - 1)
    assert main(base) == 2 and main([*base, "--prec", str(prec)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 2
    assert err.startswith(f"error: basis of weight {weight} at prec {prec} is past the budget")


# === the recipe precision budget ===


def _nested_descents(count):
    return "udesc(theta^2(" * count + "eta" + "))" * count


@pytest.mark.parametrize(
    "text, extra",
    [
        ("eta^100000000001\n", ["--ell", "5"]),
        ("theta^100000000(eta)\n", ["--ell", "5"]),
        ("name=huge\nell=5\nrecipe=eta\nprec=999999999999\n", []),
        ("eta\n", ["--ell", "5", "--prec", "999999999999"]),
        (_nested_descents(12) + "\n", ["--ell", "5"]),
        (_nested_descents(30) + "\n", ["--ell", "5"]),
    ],
    ids=["eta-power", "theta-power", "scenario-prec", "prec-flag", "descents-12", "descents-30"],
)
def test_cli_refuses_a_recipe_past_the_precision_budget_before_building(tmp_path, capsys, monkeypatch, text, extra):
    # each would ask for gigabytes or more; with eta_series refused, the
    # exit 2 proves the budget is checked before any leaf is built
    def refuse(prec, ell):
        raise AssertionError(f"a leaf of precision {prec} was built")

    monkeypatch.setattr(cli, "eta_series", refuse)
    path = tmp_path / "r.txt"
    path.write_text(text)
    assert main(["classify", "--recipe", str(path), *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: recipe needs leaf precision ")
    assert err.endswith(f", past the budget RECIPE_MAX_PREC = {cli.RECIPE_MAX_PREC}\n")


@pytest.mark.parametrize("text", ["eta", "theta^2(eta)", "udesc(eta^5)", "udesc(udesc(eta^125))"])
def test_recipe_budget_holds_its_largest_leaf_and_refuses_one_more(monkeypatch, text):
    # the budget set to the largest leaf precision a recipe builds lets it
    # through unchanged; one below, the same leaf is refused in one line
    ell, built = 5, []
    eta = cli.eta_series

    def record(prec, modulus):
        built.append(prec)
        return eta(prec, modulus)

    monkeypatch.setattr(cli, "eta_series", record)
    want = evaluate_recipe(text, ell)
    largest = max(built)
    monkeypatch.setattr(cli, "RECIPE_MAX_PREC", largest)
    got = evaluate_recipe(text, ell)
    assert got.series == want.series and (got.lam, got.r) == (want.lam, want.r)
    monkeypatch.setattr(cli, "RECIPE_MAX_PREC", largest - 1)
    with pytest.raises(ValueError, match=f"^recipe needs leaf precision {largest}, past the budget"):
        evaluate_recipe(text, ell)


def test_recipe_budget_is_above_case_three_at_6577():
    # the largest honest recipe: case 3 at ell = 6577 plans prec 21.6M
    ell, j = 6577, (6577 - 1) // 4
    lam, r = j * (ell + 1), 1
    assert membership_depth(lam, r)[1] + 24 < cli.RECIPE_MAX_PREC


def test_cli_classify_bare_recipe(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("theta(eta)\n")
    code = main(["classify", "--recipe", str(path), "--ell", "5"])
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["case"] == "1"
    assert report["a1"] == 4
    assert [c["name"] for c in report["checks"]] == [
        "two_square_classes", "multiplier", "congruence"]


def test_cli_classify_bare_recipe_needs_ell(tmp_path, capsys):
    path = tmp_path / "r.txt"
    path.write_text("theta(eta)\n")
    assert main(["classify", "--recipe", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_classify_scenario_file(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("name=demo\nell=5\nrecipe=eta^5\nexpect.case=2\n")
    code = main(["classify", "--recipe", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["case"] == "2"
    # conflicting --ell is refused
    assert main(["classify", "--recipe", str(path), "--ell", "7"]) == 2


def test_cli_classify_scenario_bad_flag_is_one_line(tmp_path, capsys):
    path = tmp_path / "s.scenario"
    path.write_text("name=demo\nell=5\nrecipe=eta^5\nexpect.hypothesis_ok=True\n")
    assert main(["classify", "--recipe", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'True'" in err and err.count("\n") == 1


def test_cli_classify_sharpness_scenario_exits_3(capsys):
    path = resources.files("etakit") / "scenarios" / "sharpness-eta-25.scenario"
    code = main(["classify", "--recipe", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 3
    assert report["case"] == "unclassified"
    assert report["hypothesis_ok"] is False
    assert report["checks"][-1]["witness"] == 25


def test_cli_classify_series_file(tmp_path, capsys):
    from etakit.qseries import series_to_text

    path = tmp_path / "eta.series"
    path.write_text(series_to_text(eta_series(60, 5)))
    code = main([
        "classify", "--series", str(path), "--assert-member",
        "--ell", "5", "--lambda", "0", "--r", "1",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["case"] == "1"


def test_cli_series_is_certified_at_every_coefficient_it_gives(tmp_path, capsys):
    # eta mod 13 has 1, -1, -1, 1 at 1, 25, 49, 121: this file agrees with
    # no multiple of eta at 25, past the Sturm depth 25 of lam = 0, r = 1,
    # where the pivot alone fixes the strand
    from etakit.qseries import series_to_text

    path = tmp_path / "bad.series"
    path.write_text("# ring=Fp:13 prec=200 residue=1\n1 1\n49 5\n121 3\n")
    args = ["classify", "--series", str(path), "--assert-member",
            "--ell", "13", "--lambda", "0", "--r", "1"]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "first bad index 25" in err and "Traceback" not in err
    # a true member is compared at every coefficient it has
    path.write_text(series_to_text(eta_series(200, 13).scale(3)))
    assert main(args) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "1" and report["a1"] == 3
    assert report["depth"] == 200


@pytest.mark.parametrize(
    "header, lines, message",
    [
        # a file with no class: every series lives on one class mod 24
        ("# ring=Fp:13 prec=200 residue=none", "1 1\n25 12\n", "residue=none: a series lives on one class"),
        # one past the (patched) precision budget, refused before any coefficient is stored
        ("# ring=Fp:13 prec=241 residue=1", "1 1\n", "series prec 241 exceeds the budget SERIES_MAX_PREC = 240"),
    ],
    ids=["residue-none", "past-the-budget"],
)
def test_cli_refuses_a_bad_series_file_in_one_line(tmp_path, capsys, monkeypatch, header, lines, message):
    monkeypatch.setattr(qseries, "SERIES_MAX_PREC", 240)
    path = tmp_path / "bad.series"
    path.write_text(f"{header}\n{lines}")
    assert main(["classify", "--series", str(path), "--assert-member",
                 "--ell", "13", "--lambda", "0", "--r", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_cli_series_in_a_one_dimensional_space_builds_no_generator(tmp_path, capsys, monkeypatch, cold_caches):
    # 3 eta mod 13 lies in eta * M_0, whose one row is 1: a check at every
    # coefficient reads no E4, E6 or t, and inverts eta over no more entries
    # than the one pivot; the rest is compared after multiplying by eta
    from etakit.qseries import series_to_text

    def refuse(*args):
        raise AssertionError("the check built E4 and E6")

    inverted, inverse = [], spaces._inverse

    def record(a, ell, length):
        inverted.append(length)
        return inverse(a, ell, length)

    monkeypatch.setattr(spaces, "_e4_e6", refuse)
    monkeypatch.setattr(spaces, "_inverse", record)
    path = tmp_path / "eta.series"
    path.write_text(series_to_text(eta_series(2400, 13).scale(3)))
    assert main(["classify", "--series", str(path), "--assert-member",
                 "--ell", "13", "--lambda", "0", "--r", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "1" and report["a1"] == 3 and report["depth"] == 2400
    assert all(length <= 1 for length in inverted)


def test_cli_classify_series_guard_rails(tmp_path, capsys):
    from etakit.qseries import series_to_text

    path = tmp_path / "eta.series"
    path.write_text(series_to_text(eta_series(60, 5)))
    # refuses without the explicit assertion flag
    assert main(["classify", "--series", str(path), "--ell", "5",
                 "--lambda", "0", "--r", "1"]) == 2
    # missing weight data
    assert main(["classify", "--series", str(path), "--assert-member",
                 "--ell", "5"]) == 2
    capsys.readouterr()
    # ring mismatch, either way round
    for ring, ell in ((5, 7), (7, 5)):
        path.write_text(series_to_text(eta_series(60, ring)))
        assert main(["classify", "--series", str(path), "--assert-member",
                     "--ell", str(ell), "--lambda", "0", "--r", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: series ring Fp:{ring} disagrees with ell {ell}\n"
    # integer-ring input (eta: 1, -1, -1 at 1, 25, 49) is reduced mod --ell
    zpath = tmp_path / "etaz.series"
    zpath.write_text("# ring=Z prec=60 residue=1\n1 1\n25 -1\n49 -1\n")
    assert main(["classify", "--series", str(zpath), "--assert-member",
                 "--ell", "5", "--lambda", "0", "--r", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "1" and report["a1"] == 1


def test_cli_classify_eta_at_a_multiple_of_ell_minus_one(tmp_path, capsys):
    # eta = eta E_4 mod 5 lies in the space at lam = 4, inside the weight
    # hypothesis; its case-1 target is T1(0) = eta, which keeps the term
    # at 25 that T1(4) lacks
    from etakit.qseries import series_to_text

    path = tmp_path / "eta.series"
    path.write_text(series_to_text(eta_series(200, 5)))
    assert main(["classify", "--series", str(path), "--assert-member",
                 "--ell", "5", "--lambda", "4", "--r", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["case"] == "1" and report["a1"] == 1 and report["depth"] == 200
    assert report["checks"][-1] == {"name": "congruence", "pass": True, "witness": None}


def test_cli_classify_series_refuses_prec(tmp_path, capsys):
    # a series file is certified at its own precision, so --prec has no use
    from etakit.qseries import series_to_text

    path = tmp_path / "eta.series"
    path.write_text(series_to_text(eta_series(60, 5)))
    assert main(["classify", "--series", str(path), "--assert-member",
                 "--ell", "5", "--lambda", "0", "--r", "1", "--prec", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --series does not read --prec\n"


@pytest.mark.parametrize("extra, stray", [
    (["--lambda", "99", "--r", "5", "--assert-member"],
     "--recipe does not read --lambda, --r, --assert-member"),
    (["--assert-member"], "--recipe does not read --assert-member"),
    (["--series", "eta.series"], "--recipe does not read --series"),
], ids=["weight-data", "assert-member", "series"])
def test_cli_classify_recipe_refuses_a_flag_it_does_not_read(tmp_path, capsys, extra, stray):
    path = tmp_path / "r.txt"
    path.write_text("theta(eta)\n")
    base = ["classify", "--recipe", str(path), "--ell", "5"]
    assert main(base + extra) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {stray}\n"
    # the recipe alone, and with --prec, which a recipe reads
    assert main(base) == 0
    assert main(base + ["--prec", "200"]) == 0


# === fuzzing: every input ends in an exit code, never a traceback ===

FUZZ_ELLS = (5, 7, 13, 73, 2**61 - 1)
_fuzz_text = st.text(st.characters(codec="utf-8"), max_size=12)


def _sometimes(valid, stray):
    """valid, and one time in eight stray."""
    return st.sampled_from((True,) * 7 + (False,)).flatmap(lambda ok: valid if ok else stray)


# three ells in eight are no prime >= 5, two of them 0 and 1, where nothing is reduced mod ell - 1
_fuzz_ell = st.sampled_from(FUZZ_ELLS + (0, 1, 4))
_fuzz_int = _sometimes(st.sampled_from((1, 5, 7, 2, 0, 25, 13, 11)), st.integers(-3, 10**13)).map(str)


@st.composite
def _fuzz_grammar(draw, depth=3):
    """A recipe from the grammar, nested at most depth operations deep."""
    kind = draw(st.sampled_from(("eta", "eta", "theta", "udesc", "scale", "sum") if depth else ("eta",)))
    if kind == "eta":
        return "eta" if draw(st.booleans()) else f"eta^{draw(_fuzz_int)}"
    inner = _fuzz_grammar(depth - 1)
    if kind == "theta":
        return f"theta^{draw(_fuzz_int)}({draw(inner)})"
    if kind == "udesc":
        return f"udesc({draw(inner)})"
    if kind == "scale":
        return f"{draw(_fuzz_int)}^{draw(_fuzz_int)}*{draw(inner)}"
    return f"{draw(inner)} + {draw(inner)}"


def _fuzz_recipes():
    """Recipes from the grammar, now and then its tokens in any order or any text."""
    tokens = st.lists(st.sampled_from(
        ("eta", "theta", "udesc", "(", ")", "^", "*", "+", " ", "0", "5", "25", "-", "=", "x")
    ), max_size=10).map("".join)
    return _sometimes(_fuzz_grammar(), st.one_of(tokens, _fuzz_text))


@st.composite
def _fuzz_scenarios(draw):
    """Scenario text: its fields with valid or stray values, now and then one left out, in any order."""
    fields = {
        "name": _fuzz_text,
        "ell": _sometimes(_fuzz_ell.map(str), _fuzz_text),
        "recipe": _fuzz_recipes(),
        "prec": _sometimes(_fuzz_int, _fuzz_text),
        "expect.case": st.sampled_from(("1", "2", "3", "zero", "unclassified")),
        "expect.hypothesis_ok": _sometimes(st.sampled_from(("true", "false")), _fuzz_text),
        "expect.depth": _sometimes(_fuzz_int, _fuzz_text),
        "note": _fuzz_text,
    }
    keys = [key for i, key in enumerate(fields) if i < 3 or draw(st.booleans())]
    if draw(_sometimes(st.just(False), st.just(True))):
        keys.remove(draw(st.sampled_from(keys)))
    lines = [f"{key}={draw(fields[key])}" for key in draw(st.permutations(keys))]
    return "\n".join(lines + draw(_sometimes(st.just([]), st.lists(_fuzz_text, max_size=2))))


@st.composite
def _fuzz_series(draw, ell, residue):
    """Series text on the class residue: eta^residue, now and then bent, or a random series, now and then stray."""
    prec = draw(st.integers(1, 2400))
    index = st.integers(0, (prec - 1) // 24).map(lambda m: 24 * m + residue)
    terms = draw(st.dictionaries(_sometimes(index, st.integers(-5, 2500)), st.integers(-(2**70), 2**70), max_size=6))
    if ell in FUZZ_ELLS and draw(st.booleans()):
        member = dict((eta_series(prec + 24 * residue + 2, ell) ** residue).truncate(prec).nonzero_items())
        terms = draw(_sometimes(st.just(member), st.just({**member, **terms})))
    ring = draw(_sometimes(st.sampled_from(("Z", f"Fp:{ell}")), st.sampled_from(("Fp:5", "Q", "Fp:x"))))
    fields = [f"ring={ring}", f"prec={draw(_sometimes(st.just(prec), _fuzz_text))}",
              f"residue={draw(_sometimes(st.just(residue), st.one_of(st.integers(-1, 25), _fuzz_text)))}"]
    if draw(_sometimes(st.just(False), st.just(True))):
        fields.pop(draw(st.integers(0, 2)))
    header = ["# " + " ".join(draw(st.permutations(fields)))] * draw(_sometimes(st.just(1), st.just(0)))
    lines = [f"{n} {c}" for n, c in terms.items()]
    return "\n".join(header + lines + draw(_sometimes(st.just([]), st.lists(_fuzz_text, max_size=1))))


@st.composite
def _fuzz_commands(draw):
    """(text written to the input file, the arguments that read it)."""
    ell = draw(_fuzz_ell)
    kind = draw(st.sampled_from(("recipe", "scenario", "series")))
    if kind == "series":
        residue = draw(st.sampled_from((1, 5, 13, 0)))
        lam, r = draw(_sometimes(st.just(((residue - 1) // 2, residue)),
                                 st.tuples(st.integers(-2, 10**6), st.integers(-2, 30))))
        args = ["--series", "{path}", "--assert-member", "--ell", str(ell), "--lambda", str(lam), "--r", str(r)]
        return draw(_fuzz_series(ell, residue)), args
    text = draw(_fuzz_recipes()) if kind == "recipe" else draw(_fuzz_scenarios())
    with_ell = draw(_sometimes(st.just(kind == "recipe"), st.just(kind != "recipe")))
    args = ["--recipe", "{path}"] + (["--ell", str(ell)] if with_ell else [])
    if draw(st.booleans()):
        args += ["--prec", draw(_fuzz_int)]
    return text, args


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_fuzz_commands())
def test_fuzzed_classify_input_exits_with_a_code_and_at_most_one_error_line(tmp_path_factory, command):
    # under small budgets any recipe, scenario or series text ends in exit 0,
    # 1, 2 or 3; no exception escapes main, and exit 2 prints one stderr line
    text, args = command
    path = tmp_path_factory.getbasetemp() / "fuzzed-input.txt"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(cli, "RECIPE_MAX_PREC", 2400)
        mp.setattr(qseries, "SERIES_MAX_PREC", 2400)
        code = main(["classify"] + [a.format(path=path) for a in args])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
    else:
        assert err.getvalue() == ""


def test_cli_classify_needs_input(capsys):
    assert main(["classify", "--ell", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_verify_paper_examples_one_ell(capsys):
    code = main(["verify", "--suite", "paper-examples", "--ell", "13"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].endswith("scenarios, 0 failed")
    body = [ln for ln in lines[:-1] if not ln.startswith("  -")]
    assert len(body) == 6  # five forms and the refused negative control
    for line in body:
        assert line.rstrip().endswith("ok")
        assert "case=" in line and "depth=" in line


def test_cli_verify_paper_examples_whole_corpus(capsys):
    assert main(["verify", "--suite", "paper-examples"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "23 scenarios, 0 failed"


def test_cli_verify_multiplier_numeric(capsys):
    code = main(["verify", "--suite", "multiplier-numeric"])
    out = capsys.readouterr().out
    assert code == 0
    assert "multiplier-numeric: ok" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "paper-examples", "--ell", "x"],
        ["verify", "--suite", "filtration-laws", "--ell", "4"],
        ["verify", "--suite", "paper-examples", "--ell", "4"],
        ["verify", "--suite", "multiplier-numeric", "--ell", "4"],
    ],
)
def test_cli_verify_bad_ell_is_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_filtration_sweep_refuses_a_huge_ell(capsys, monkeypatch):
    # the sweep's precision grows with ell: 2^31 - 1 is refused before anything is built
    def refuse(*args):
        raise AssertionError("the sweep built a series")

    monkeypatch.setattr(spaces, "_e4_e6", refuse)
    monkeypatch.setattr(cli, "miller_basis", refuse)
    assert main(["verify", "--suite", "filtration-laws", "--ell", str(2**31 - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "precision" in captured.err
    # the bound: 24 (6 + ell) + 49 <= SWEEP_MAX_PREC, checked before the first form
    largest = (cli.SWEEP_MAX_PREC - 49) // 24 - 6
    assert filtration_sweep(largest, count=0) == []
    with pytest.raises(ValueError, match="precision"):
        filtration_sweep(largest + 1, count=0)


def test_cli_rejects_unknown_suite():
    with pytest.raises(SystemExit):
        main(["verify", "--suite", "nonsense"])


def test_readme_commands_parse():
    # a flag the parser no longer has must not survive in the docs
    readme = (REPO / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["etakit"]:
                commands.append(words[1:])
    assert commands
    for argv in commands:
        try:
            _parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: etakit {shlex.join(argv)}")


def test_console_script_wired(tmp_path):
    # build the launcher an installer makes for [project.scripts] from this
    # checkout, never take one from PATH: an installed etakit may be stale or
    # come from another checkout
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["etakit"]
    module, attr = target.split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "etakit"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    exe = shutil.which("etakit", path=str(bin_dir))
    assert exe, "launcher for [project.scripts] etakit should be executable"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [exe, "basis", "--weight", "12", "--ell", "5"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0
    assert "# ring=Fp:5" in proc.stdout


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "etakit.cli", "classify", "--recipe", "/nonexistent"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
