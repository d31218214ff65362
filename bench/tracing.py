"""Span tracing of etakit's layers, installed from outside the program.

Every public function of the layer modules (their ``__all__``), plus
``QExp24.__init__``, ``__mul__`` and ``__pow__``, is replaced by a
wrapper in every etakit module namespace that binds it: halfint,
classify and cli import names directly, so patching only the defining
module would miss their calls.  Spans (name, start, end, parent) are
kept in memory while ``active`` is set, that is inside the benchmark's
timed operations, and written out at the end of the round.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
from time import perf_counter

LAYERS = ("qseries", "spaces", "halfint", "classify", "numeric", "cli")

# Per-coefficient scalar helpers: kronecker runs once per coefficient in
# hecke_tp2 and once per term in eta_value, millions of times a round, so
# a span per call would dominate the traced run and its memory.  No layer
# metric reads them.
UNSPANNED = frozenset({"kronecker", "is_prime", "squarefree_part"})

BASIS_BUILDERS = frozenset({"spaces.miller_basis", "spaces.eta_space_basis"})

# (metric, unit) in the order the traced run reports them.
PER_LAYER = (
    ("qseries.construct_s", "s"),
    ("qseries.construct_calls", "count"),
    ("qseries.coeffs_built", "count"),
    ("qseries.mul_s", "s"),
    ("qseries.mul_calls", "count"),
    ("qseries.theta_op_s", "s"),
    ("qseries.eta_series_s", "s"),
    ("spaces.miller_basis_s", "s"),
    ("spaces.miller_basis_calls", "count"),
    ("spaces.miller_basis_builds", "count"),
    ("spaces.eta_space_basis_s", "s"),
    ("spaces.eta_space_basis_calls", "count"),
    ("spaces.eta_space_basis_builds", "count"),
    ("spaces.basis_coeffs_built", "count"),
    ("spaces.basis_hits", "count"),
    ("spaces.basis_calls", "count"),
    ("spaces.basis_hit_ratio", "ratio"),
    ("spaces.eta_membership_s", "s"),
    ("spaces.coordinates_s", "s"),
    ("spaces.filtration_s", "s"),
    ("halfint.certify_s", "s"),
    ("halfint.theta_lift_s", "s"),
    ("halfint.u_ell_descent_s", "s"),
    ("halfint.hecke_check_s", "s"),
    ("halfint.hecke_tp2_s", "s"),
    ("halfint.shimura_s", "s"),
    ("classify.classify_s", "s"),
    ("classify.calls", "count"),
    ("numeric.verify_eta_transform_s", "s"),
    ("numeric.calls", "count"),
    ("cli.evaluate_recipe_s", "s"),
    ("cli.parse_recipe_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans and counters around etakit's public functions."""

    def __init__(self):
        self.active = False
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = collections.Counter()
        self._stack = []
        self._seen_bases = {}  # id -> basis; holding the object keeps ids unique

    def install(self):
        modules = [importlib.import_module("etakit")]
        modules += [importlib.import_module(f"etakit.{layer}") for layer in LAYERS]
        for layer, home in zip(LAYERS, modules[1:]):
            for name in home.__all__:
                fn = getattr(home, name)
                if name in UNSPANNED or not inspect.isfunction(fn):
                    continue
                span = f"{layer}.{name}"
                after = self._after_basis if span in BASIS_BUILDERS else None
                wrapper = self._wrap(span, fn, after)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, attr, wrapper)
        qexp = modules[1].QExp24
        qexp.__init__ = self._wrap("qseries.construct", qexp.__init__, self._after_construct)
        qexp.__mul__ = self._wrap("qseries.mul", qexp.__mul__)
        qexp.__pow__ = self._wrap("qseries.pow", qexp.__pow__)

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                result = fn(*args, **kwargs)
            else:
                rec = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter()
                    tracer._stack.pop()
            if after is not None:
                after(name, args, result)
            return result

        return wrapper

    def _after_construct(self, _name, args, _result):
        if self.active:
            self.counts["coeffs_built"] += args[0].prec

    def _after_basis(self, name, _args, basis):
        hit = id(basis) in self._seen_bases
        self._seen_bases[id(basis)] = basis
        if self.active:
            self.counts["basis_calls"] += 1
            self.counts[f"{name}_builds"] += not hit
            self.counts["basis_hits"] += hit
            if not hit:
                self.counts["basis_coeffs_built"] += basis.dim * basis.prec

    def self_times(self) -> dict:
        """{span name: [self seconds, calls]}; self = duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = collections.defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += end - start - child[i]
            entry[1] += 1
        return totals

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this round, except trace.overhead_s."""
        totals = self.self_times()

        def self_s(*names):
            return sum(totals[n][0] for n in names if n in totals)

        def calls(*names):
            return sum(totals[n][1] for n in names if n in totals)

        hits, basis_calls = self.counts["basis_hits"], self.counts["basis_calls"]
        return {
            "qseries.construct_s": self_s("qseries.construct"),
            "qseries.construct_calls": calls("qseries.construct"),
            "qseries.coeffs_built": self.counts["coeffs_built"],
            "qseries.mul_s": self_s("qseries.mul", "qseries.pow"),
            "qseries.mul_calls": calls("qseries.mul", "qseries.pow"),
            "qseries.theta_op_s": self_s("qseries.theta_op"),
            "qseries.eta_series_s": self_s("qseries.eta_series"),
            "spaces.miller_basis_s": self_s("spaces.miller_basis"),
            "spaces.miller_basis_calls": calls("spaces.miller_basis"),
            "spaces.miller_basis_builds": self.counts["spaces.miller_basis_builds"],
            "spaces.eta_space_basis_s": self_s("spaces.eta_space_basis"),
            "spaces.eta_space_basis_calls": calls("spaces.eta_space_basis"),
            "spaces.eta_space_basis_builds": self.counts["spaces.eta_space_basis_builds"],
            "spaces.basis_coeffs_built": self.counts["basis_coeffs_built"],
            "spaces.basis_hits": hits,
            "spaces.basis_calls": basis_calls,
            "spaces.basis_hit_ratio": hits / basis_calls if basis_calls else 0.0,
            "spaces.eta_membership_s": self_s("spaces.eta_membership"),
            "spaces.coordinates_s": self_s("spaces.coordinates"),
            "spaces.filtration_s": self_s("spaces.filtration"),
            "halfint.certify_s": self_s("halfint.certify"),
            "halfint.theta_lift_s": self_s("halfint.theta_lift"),
            "halfint.u_ell_descent_s": self_s("halfint.u_ell_descent"),
            "halfint.hecke_check_s": self_s("halfint.hecke_eigenvalue_check"),
            "halfint.hecke_tp2_s": self_s("halfint.hecke_tp2"),
            "halfint.shimura_s": self_s("halfint.shimura_coeffs"),
            "classify.classify_s": self_s("classify.classify"),
            "classify.calls": calls("classify.classify"),
            # verify_eta_transform's helpers (eta_value, eta_multiplier_value)
            # are numeric's own public functions, so the layer's whole self
            # time is reported under it.
            "numeric.verify_eta_transform_s": self_s(*(n for n in totals if n.startswith("numeric."))),
            "numeric.calls": calls("numeric.verify_eta_transform"),
            "cli.evaluate_recipe_s": self_s("cli.evaluate_recipe"),
            "cli.parse_recipe_s": self_s("cli.parse_recipe"),
            "trace.spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
