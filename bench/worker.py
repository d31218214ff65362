"""One round of one workload, in the fresh interpreter run.py starts.

    python3 bench/worker.py WORKLOAD SEED MODE [SPANS_FILE]

MODE is ``setup`` (time set-up and stop), ``plain`` (timed round) or
``traced`` (timed round with the layer wrappers installed; spans go to
SPANS_FILE).  etakit must be importable (run.py puts ``src`` on the
path).  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv) -> int:
    workload, seed, mode = argv[1], int(argv[2]), argv[3]
    start = perf_counter()
    import etakit  # noqa: F401  (set-up as an etakit invocation pays it)
    from etakit.cli import load_scenarios

    load_scenarios()
    out = {"setup_s": perf_counter() - start}
    if mode != "setup":
        import workloads

        tracer = None
        if mode == "traced":
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        rnd = workloads.Round(tracer)
        run_round, _main_kind = workloads.WORKLOADS[workload]
        run_round(seed, rnd)
        out.update(ops=rnd.ops, failures=rnd.failures, problems=rnd.problems)
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            tracer.write_spans(argv[4])
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
