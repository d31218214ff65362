"""Command-line surface: bases, classification, verification suites.

Recipes are a tiny declarative pipeline language so that scenario files
stay data.  One regex pass tokenizes a recipe and a recursive descent
reads it, ^INT in one rule, at most RECIPE_MAX_DEPTH theta( or udesc( deep:

    expr   := term ('+' term)*
    term   := [INT('^'INT)? '*'] factor
    factor := 'eta'('^'INT)? | 'theta'('^'INT)?'(' expr ')' | 'udesc(' expr ')'

One walk over a recipe gives each node's weight (lam, r) and a builder
of its series, certified only at the root and around each udesc.  Leaf
precision comes from the root's classification depth; a udesc node
scales it by ell and lifts it to its input's depth: none is under-built.
Scenario files are line-oriented key=value (name, ell, recipe,
optional prec, expect.* fields).
"""

from __future__ import annotations

import argparse
import math
import random
import re
import sys
import time

from .qseries import (
    QExp24,
    _validate_modulus,
    eta_series,
    series_from_text,
    series_to_text,
    theta_op,
)
from .spaces import (
    CertificationError,
    MembershipCertificate,
    coordinates,
    dims,
    filtration,
    membership_depth,
    miller_basis,
)
from .halfint import HalfIntForm, certify, descent_weight, u_ell_descent
from .classify import classify
from .numeric import (
    UnimodularMatrix,
    epsilon_identities,
    eta_multiplier_exponent,
    verify_eta_transform,
)

__all__ = ["main", "parse_recipe", "evaluate_recipe", "parse_scenario", "load_scenarios"]


# === recipe parsing ===


# deepest nesting of theta( and udesc(: parser, _walk and builders recurse once a level
RECIPE_MAX_DEPTH = 100
_TOKEN = re.compile(r"(\d+)|([^\W\d_]+)|(\S)")  # digits, other word characters, one other


def _tokenize(text: str):
    tokens = []
    for digits, letters, other in _TOKEN.findall(text):
        if digits:
            tokens.append(("int", int(digits)))
        elif letters:
            tokens.append(("name", letters))
        elif other in "^*+()":
            tokens.append((other, other))
        else:
            raise ValueError(f"bad character {other!r} in recipe")
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self, kind):
        tok = self.peek()
        if tok[0] != kind:
            raise ValueError(f"expected {kind!r} at token {self.pos}, got {tok}")
        self.pos += 1
        return tok[1]

    def exponent(self):
        """The optional '^' INT suffix, or 1."""
        if self.peek()[0] != "^":
            return 1
        self.take("^")
        return self.take("int")

    def expr(self):
        terms = [self.term()]
        while self.peek()[0] == "+":
            self.take("+")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else ("sum", terms)

    def term(self):
        if self.peek()[0] != "int":
            return self.factor()
        base, exp = self.take("int"), self.exponent()
        self.take("*")
        return ("scale", base, exp, self.factor())

    def factor(self):
        name = self.take("name")
        if name == "eta":
            return ("eta", self.exponent())
        if name == "theta":
            return ("theta", self.exponent(), self.argument())
        if name == "udesc":
            return ("udesc", self.argument())
        raise ValueError(f"unknown operation {name!r}")

    def argument(self):
        """'(' expr ')', one nesting level deeper."""
        self.depth += 1
        if self.depth > RECIPE_MAX_DEPTH:
            raise ValueError(f"recipe nests deeper than {RECIPE_MAX_DEPTH} operations")
        self.take("(")
        sub = self.expr()
        self.take(")")
        self.depth -= 1
        return sub


def parse_recipe(text: str):
    """AST of ("eta", k), ("theta", j, sub), ("udesc", sub), ("scale", c, e, sub), ("sum", terms).

    One regex pass, then recursive descent; ValueError on any bad input.
    """
    parser = _Parser(_tokenize(text))
    ast = parser.expr()
    if parser.pos != len(parser.tokens):
        raise ValueError(f"trailing tokens in recipe at position {parser.pos}")
    return ast


def _walk(node, ell: int):
    """(lam, r, build) of a recipe node; build(need) returns its series.

    Each node kind states its weight, its checks and its construction here
    once; the series built lies in the space of the weight computed, by
    construction.  need, the eta leaves' precision, is at least the node's
    depth plus 24; only udesc raises it, for its input, which it certifies.
    """
    kind = node[0]
    if kind == "eta":
        k = node[1]
        if k < 1 or math.gcd(k, 6) != 1:
            raise ValueError(f"eta power must be positive and prime to 6, got {k}")
        return (k - 1) // 2, k, lambda need: (eta_series(need, ell) ** k).truncate(need)
    if kind == "theta":
        lam, r, inner = _walk(node[2], ell)
        return lam + node[1] * (ell + 1), r, lambda need: theta_op(inner(need), node[1])
    if kind == "udesc":
        lam, r, descend = _descent(node, ell)
        return lam, r, lambda need: descend(need).series
    if kind == "scale":
        lam, r, inner = _walk(node[3], ell)
        c = pow(node[1], node[2], ell)
        return lam, r, lambda need: inner(need).scale(c)
    if kind == "sum":
        walks = [_walk(sub, ell) for sub in node[1]]
        lam, r, _ = max(walks, key=lambda w: w[0])
        if any((w[0] - lam) % (ell - 1) or (w[1] - r) % 24 for w in walks):
            raise ValueError("sum terms live in incompatible spaces")

        def build(need):
            first, *rest = (w[2](need) for w in walks)
            return sum(rest, first)  # a sum keeps the smaller precision
        return lam, r, build
    raise ValueError(f"unknown recipe node {kind!r}")


# largest leaf precision a recipe may plan, checked before its leaves are
# built: above case 3 at ell = 6577 (prec 21.6M, about 0.2 s and 77 MB peak
# RSS).  It bounds memory, not time: a strand at this prec holds 1.25M
# entries, 10 MB in int64, and a recipe keeps a few of them alive at once.
RECIPE_MAX_PREC = 3 * 10**7


def _leaf_prec(need: int) -> int:
    """need, or ValueError when it passes RECIPE_MAX_PREC."""
    if need > RECIPE_MAX_PREC:
        raise ValueError(
            f"recipe needs leaf precision {need}, past the budget RECIPE_MAX_PREC = {RECIPE_MAX_PREC}"
        )
    return need


def _descent(node, ell: int):
    """(lam*, r*, descend) of a udesc node: descend(need) certifies its input, then descends."""
    lam, r, inner = _walk(node[1], ell)
    least = membership_depth(lam, r)[1] + 24
    return (*descent_weight(lam, r, ell), lambda need: u_ell_descent(
        certify(inner(_leaf_prec(max(ell * need + ell, least))), lam, r)))


def evaluate_recipe(text: str, ell: int, prec: int | None = None) -> HalfIntForm:
    """Evaluate a recipe to a certified form over F_ell.

    One walk gives the root's weight and its builder; the root is certified
    here, once, unless it is a udesc, whose descent is certified already.
    Leaf precision is the root's depth plus 24 (or prec if larger); only a
    udesc node raises it, and certifies, below itself.  A leaf precision
    past RECIPE_MAX_PREC, at the root or under a udesc, is a ValueError
    before that node builds anything, and so is an ell that is not a prime
    >= 5, before the walk does arithmetic mod ell - 1.
    """
    _validate_modulus(ell, "ell")
    node = parse_recipe(text)
    lam, r, build = (_descent if node[0] == "udesc" else _walk)(node, ell)
    out = build(_leaf_prec(max(membership_depth(lam, r)[1] + 24, prec or 0)))
    return out if node[0] == "udesc" else certify(out, lam, r)


# === scenario files ===


def parse_scenario(text: str) -> dict:
    """Parse a line-oriented key=value scenario description."""
    sc = {"expect": {}, "prec": None, "source": None}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"scenario line without '=': {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("expect."):
            field = key[len("expect."):]
            if field in ("case",):
                sc["expect"][field] = value
            elif field == "hypothesis_ok":
                if value not in ("true", "false"):
                    raise ValueError(f"expect.hypothesis_ok must be true or false, got {value!r}")
                sc["expect"][field] = value == "true"
            else:
                sc["expect"][field] = int(value)
        elif key in ("ell", "prec"):
            sc[key] = int(value)
        else:
            sc[key] = value
    for required in ("name", "ell", "recipe"):
        if required not in sc or sc[required] is None:
            raise ValueError(f"scenario is missing {required!r}")
    return sc


def load_scenarios() -> list:
    """Shipped scenario corpus, sorted by name."""
    from importlib import resources

    root = resources.files("etakit") / "scenarios"
    found = [parse_scenario(e.read_text()) for e in root.iterdir() if e.name.endswith(".scenario")]
    return sorted(found, key=lambda sc: sc["name"])


def _exit_for_case(case: str) -> int:
    return 0 if case in ("1", "2", "3", "zero") else 3


def run_scenario(sc: dict) -> dict:
    """Evaluate and classify one scenario; compare against expectations.

    A recipe that evaluate_recipe or classify refuses, as classify --recipe
    does with exit 2, is the outcome case "refused" with exit 2 and no
    depth, compared like any other: a negative control expects it.
    """
    t0 = time.perf_counter()
    try:
        report = classify(evaluate_recipe(sc["recipe"], sc["ell"], sc.get("prec")))
    except (ValueError, CertificationError) as exc:
        report, got = None, {"case": "refused", "exit": 2, "error": str(exc)}
    else:
        got = report.to_dict()
        got["exit"] = _exit_for_case(report.case)
    seconds = time.perf_counter() - t0
    failures = []
    for field, want in sc["expect"].items():
        if got.get(field) != want:
            failures.append(f"{field}: expected {want!r}, got {got.get(field)!r}")
    if report is None and failures:
        failures.append(f"refused: {got['error']}")
    return {
        "name": sc["name"],
        "case": got["case"],
        "depth": "-" if report is None else report.depth,
        "seconds": seconds,
        "failures": failures,
    }


# === verification sweeps ===


def _random_unimodular(rng: random.Random) -> UnimodularMatrix:
    # a coprime bottom row with entries in [-50, 50], completed by an inverse of d mod c
    while True:
        c = rng.randint(-50, 50)
        d = rng.randint(-50, 50)
        if (c, d) == (0, 0) or math.gcd(c, d) != 1:
            continue
        a, b = _complete_row(c, d)
        t = rng.randint(-2, 2)
        a, b = a + t * c, b + t * d
        if abs(a) <= 50 and abs(b) <= 50:
            return UnimodularMatrix(a, b, c, d)


def _complete_row(c: int, d: int):
    """(a, b) with a*d - b*c == 1 for coprime (c, d); c = 0 leaves d = +-1 and b = 0."""
    a = pow(d, -1, abs(c)) if c else d
    return a, (a * d - 1) // c if c else 0


def multiplier_sweep(count: int = 100, seed: int = 2024) -> dict:
    """Numeric verification of the eta transformation law at z = i."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(count):
        gamma = _random_unimodular(rng)
        dev = verify_eta_transform(gamma, 1j)
        worst = max(worst, dev)
        if eta_multiplier_exponent(gamma) not in range(24):
            raise AssertionError("multiplier exponent escaped Z/24")
    eps = epsilon_identities(99)
    return {
        "eta_max_deviation": worst,
        "epsilon_identities": "pass" if eps is None else repr(eps),
        "count": count,
    }


def _random_cusp_form(rng: random.Random, ell: int, k: int, prec: int) -> QExp24:
    basis = miller_basis(k, ell, prec, "S")
    while True:
        coeffs = [rng.randrange(ell) for _ in range(basis.dim)]
        if any(coeffs):
            break
    total = QExp24.zero(prec, ell, 0)
    for c, elem in zip(coeffs, basis.elements):
        if c:
            total = total + elem.scale(c)
    return total


# filtration_sweep's largest precision: its bases hold about ell^2 / 12 entries
SWEEP_MAX_PREC = 50_000


def filtration_sweep(ell: int, count: int = 20, seed: int = 77) -> list:
    """Check the filtration laws on random cusp forms; returns failures.

    ValueError before anything is built if 24 (2k/12 + ell) + 49 passes SWEEP_MAX_PREC.
    """
    rng = random.Random(seed)
    failures = []
    weights = [k for k in range(12, 37, 2) if dims(k)[1] > 0]
    if 24 * (2 * weights[-1] // 12 + ell) + 49 > SWEEP_MAX_PREC:
        raise ValueError(f"filtration sweep at ell = {ell} needs precision past {SWEEP_MAX_PREC}")
    for i in range(count):
        k = rng.choice(weights)
        prec = 24 * (2 * k // 12 + ell) + 49
        f = _random_cusp_form(rng, ell, k, prec)
        w = filtration(f, k)
        wt = filtration(theta_op(f), k + ell + 1)
        if wt > w + ell + 1:
            failures.append(f"{ell}:{i}: theta raised filtration past the bound")
        if (w % ell != 0) != (wt == w + ell + 1):
            failures.append(f"{ell}:{i}: theta equality rule broken at w={w}")
        w2 = filtration((f * f).truncate(prec), 2 * k)
        if w2 != 2 * w:
            failures.append(f"{ell}:{i}: filtration of the square is {w2}, not {2 * w}")
        # a weight outside the k mod (ell-1) class must refuse the series;
        # solve to the full precision, since agreeing with some weight-k_bad
        # form through the first few exponents proves nothing
        k_bad = k + 2
        while (k_bad - k) % (ell - 1) == 0:
            k_bad += 2
        basis = miller_basis(k_bad, ell, prec, "M")
        if isinstance(coordinates(f, basis, prec), MembershipCertificate):
            failures.append(f"{ell}:{i}: weight {k_bad} wrongly accepted the form")
    return failures


# === subcommands ===


# basis' largest precision, the --prec given or the default of its weight
# (about 4 k), checked before anything is built.  It bounds time: a basis of
# dm rows and L = prec / 24 entries costs about L^2 for its products and
# dm^2 L for its rows, and weight 2472 at its default prec 9961 takes 0.07 s
# at ell = 5 and 5 s at ell = 3037000493 or 2^61 - 1, whose sums take Python
# integers (2 cores), in at most 43 MB peak RSS.
BASIS_MAX_PREC = 10_000


def _cmd_basis(args) -> int:
    prec = args.prec
    if prec is None:
        dm = dims(args.weight)[0]
        prec = 24 * (dm + args.weight // 12 + 2) + 1
    if prec > BASIS_MAX_PREC:
        raise ValueError(
            f"basis of weight {args.weight} at prec {prec} is past the budget BASIS_MAX_PREC = {BASIS_MAX_PREC}"
        )
    basis = miller_basis(args.weight, args.ell, prec, args.kind)
    blocks = []
    for i, elem in enumerate(basis.elements):
        extra = {"weight": args.weight, "kind": args.kind, "index": i}
        blocks.append(series_to_text(elem, extra))
    print("\n\n".join(blocks))
    return 0


def _cmd_classify(args) -> int:
    if args.recipe is None and args.series is None:
        raise ValueError("need --recipe or --series")
    # a flag that the chosen input does not read is refused, not ignored
    if args.recipe is not None:
        source = "--recipe"
        unused = {"--series": args.series, "--lambda": args.lam, "--r": args.r,
                  "--assert-member": args.assert_member or None}
    else:
        source, unused = "--series", {"--prec": args.prec}
    stray = [flag for flag, value in unused.items() if value is not None]
    if stray:
        raise ValueError(f"{source} does not read {', '.join(stray)}")
    if args.recipe is not None:
        with open(args.recipe, "r", encoding="utf-8") as fh:
            text = fh.read()
        if "recipe=" in text:
            sc = parse_scenario(text)
            if args.ell is not None and args.ell != sc["ell"]:
                raise ValueError(f"--ell {args.ell} conflicts with scenario ell={sc['ell']}")
            form = evaluate_recipe(sc["recipe"], sc["ell"], args.prec or sc.get("prec"))
        else:
            if args.ell is None:
                raise ValueError("--ell is required with a bare recipe")
            form = evaluate_recipe(text.strip(), args.ell, args.prec)
    else:
        if not args.assert_member:
            raise ValueError(
                "refusing to classify an uncertified series; "
                "pass --assert-member to attempt certification"
            )
        if args.ell is None or args.lam is None or args.r is None:
            raise ValueError("--series needs --ell, --lambda and --r")
        with open(args.series, "r", encoding="utf-8") as fh:
            series = series_from_text(fh.read(), args.ell)
        form = certify(series, args.lam, args.r, series.prec)
    report = classify(form)
    print(report.to_json())
    return _exit_for_case(report.case)


def _cmd_verify(args) -> int:
    ells = [int(x) for x in args.ell.split(",")] if args.ell else None
    if args.suite == "paper-examples":
        scenarios = load_scenarios()
        if ells:
            scenarios = [sc for sc in scenarios if sc["ell"] in ells]
            if {sc["ell"] for sc in scenarios} != set(ells):
                raise ValueError(f"--ell {args.ell} names an ell that no scenario has")
        rows = [run_scenario(sc) for sc in scenarios]
        failed = 0
        width = max((len(r["name"]) for r in rows), default=4)
        for row in rows:
            verdict = "ok" if not row["failures"] else "FAIL"
            failed += bool(row["failures"])
            print(
                f"{row['name']:<{width}}  case={row['case']:<12} "
                f"depth={row['depth']:<6} {row['seconds']:7.2f}s  {verdict}"
            )
            for failure in row["failures"]:
                print(f"  - {failure}")
        print(f"{len(rows)} scenarios, {failed} failed")
        return 1 if failed else 0
    if args.suite == "multiplier-numeric":
        if ells:
            raise ValueError("--ell does not apply to the multiplier-numeric suite")
        result = multiplier_sweep()
        for key, value in result.items():
            print(f"{key}: {value}")
        ok = result["eta_max_deviation"] < 1e-8 and result["epsilon_identities"] == "pass"
        print("multiplier-numeric:", "ok" if ok else "FAIL")
        return 0 if ok else 1
    if args.suite == "filtration-laws":
        failures = []
        for ell in ells or [5, 7]:
            failures += filtration_sweep(ell)
        for failure in failures:
            print(f"FAIL {failure}")
        print(f"filtration-laws: {'ok' if not failures else f'{len(failures)} failures'}")
        return 0 if not failures else 1
    raise ValueError(f"unknown suite {args.suite!r}")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etakit",
        description="level-one modular forms mod ell: bases, lifts, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_basis = sub.add_parser("basis", help="dump an echelon basis")
    p_basis.add_argument("--weight", type=int, required=True)
    p_basis.add_argument("--kind", choices=("M", "S"), default="M")
    p_basis.add_argument("--ell", type=int, default=5)
    p_basis.add_argument("--prec", type=int, default=None)

    p_cls = sub.add_parser("classify", help="classify a form, JSON report")
    p_cls.add_argument("--ell", type=int, default=None)
    p_cls.add_argument("--recipe", default=None, help="recipe or scenario file")
    p_cls.add_argument("--series", default=None, help="series text file")
    p_cls.add_argument("--lambda", dest="lam", type=int, default=None)
    p_cls.add_argument("--r", type=int, default=None)
    p_cls.add_argument("--prec", type=int, default=None)
    p_cls.add_argument("--assert-member", action="store_true")

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument(
        "--suite",
        required=True,
        choices=("paper-examples", "multiplier-numeric", "filtration-laws"),
    )
    p_ver.add_argument("--ell", default=None, help="comma-separated primes")
    return parser


def main(argv=None) -> int:
    """Run one command; a usage or input error prints one line and exits 2."""
    args = _parser().parse_args(argv)
    commands = {"basis": _cmd_basis, "classify": _cmd_classify, "verify": _cmd_verify}
    try:
        return commands[args.command](args)
    except (ValueError, CertificationError, OSError) as exc:  # PrecisionError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
