"""etakit benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--json PATH]

Run from anywhere inside a source checkout; the package is imported
from ``src``.  Each round of a workload runs single-threaded in its own
fresh interpreter (bench/worker.py), so etakit's caches start cold as
they do for an ``etakit`` invocation.  Rounds of the same operations
repeat, one after the other, until ``--seconds`` have passed.  Each
operation's latency is its mean over the rounds (see mean_ops);
round_s sums them and op_p50_ms is their median over the workload's
main operation.  setup_s and peak_rss_mb are medians over the run's
interpreters.  ``--trace 1`` alternates plain and traced rounds and
reports the per-layer metrics, the tracing overhead being the
difference of the two.  Without ``--workload`` every workload runs.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
SETUP_PROBES = 7  # set-up-only interpreters per run, besides one per round
DEADLINE_S = 170  # a run ends within this, whatever --seconds says

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
    ("op_p50_ms", "ms"),
)


class BenchError(RuntimeError):
    pass


def _worker(workload, seed, mode, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), mode]
    if mode == "traced":
        cmd.append(str(OUT / f"spans-{workload}.jsonl"))
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"{workload}: no time left for another round")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: a {mode} round passed the {DEADLINE_S} s deadline") from exc
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchError(f"{workload}: {mode} worker exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def mean_ops(rounds):
    """[(kind, seconds)]: each operation of a round with its mean latency.

    Every round of a run repeats the same operations in the same order.
    The host is shared: its speed switches between two levels about 1.4x
    apart several times a second, and the share of time at the fast level
    drifts over minutes.  The mean over the rounds follows that share
    smoothly; the least or the median of the rounds jumps whenever the
    share crosses a threshold, which spread ten-run sets up to twice as
    wide.
    """
    ops = [r["ops"] for r in rounds]
    mean = []
    for repeats in zip(*ops, strict=True):
        kinds = {kind for kind, _s, _f in repeats}
        if len(kinds) != 1:
            raise BenchError(f"rounds of one run differ in their operations: {sorted(kinds)}")
        mean.append((repeats[0][0], statistics.fmean(s for _k, s, _f in repeats)))
    return mean


def run_workload(workload, seed, seconds, trace):
    """Run one workload for `seconds`; returns its summary dict."""
    deadline = perf_counter() + DEADLINE_S
    if trace:
        OUT.mkdir(exist_ok=True)
    setups = [_worker(workload, seed, "setup", deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds = []
    start = perf_counter()
    while True:
        mode = "traced" if trace and len(rounds) % 2 else "plain"
        rounds.append((mode, _worker(workload, seed, mode, deadline)))
        if perf_counter() - start >= seconds and (not trace or len(rounds) >= 2):
            break
    plain = [r for mode, r in rounds if mode == "plain"]
    traced = [r for mode, r in rounds if mode == "traced"]
    every = plain + traced
    setups += [r["setup_s"] for r in every]
    main_kind = workloads.WORKLOADS[workload][1]
    mean = mean_ops(plain)
    summary = {
        "workload": workload,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "attempted": sum(len(r["ops"]) for r in every),
        "failed": sum(failed for r in every for _k, _s, failed in r["ops"]),
        "failures": sorted({why for r in every for why in r["failures"]}),
        "problems": [p for r in every for p in r["problems"]],
        "end_to_end": {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "round_s": sum(s for _kind, s in mean),
            "op_p50_ms": 1e3 * statistics.median(s for kind, s in mean if kind == main_kind),
        },
        "named": workloads.named_metrics(workload, mean),
    }
    if trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name, _unit in tracing.PER_LAYER
            if name != "trace.overhead_s"
        }
        traced_round_s = sum(s for _kind, s in mean_ops(traced))
        layers["trace.overhead_s"] = traced_round_s - summary["end_to_end"]["round_s"]
        summary["per_layer"] = layers
    return summary


def _print_summary(s, trace):
    print(
        f"workload {s['workload']}: {s['rounds']} plain + {s['traced_rounds']} traced rounds, "
        f"{s['attempted']} operations attempted, {s['failed']} failed, "
        f"correct={'true' if not s['problems'] else 'false'}"
    )
    for name, unit in END_TO_END:
        print(f"  {name:<28} {s['end_to_end'][name]:.6g} {unit}")
    for name, (value, unit) in s["named"].items():
        print(f"  {name:<28} {value:.6g} {unit}")
    if trace:
        for name, unit in tracing.PER_LAYER:
            print(f"  {name:<28} {s['per_layer'][name]:.6g} {unit}")
    for why in s["failures"]:
        print(f"  failed: {why}")
    for problem in s["problems"][:20]:
        print(f"  WRONG: {problem}")


def _metrics(s, trace, prefix=""):
    table = tracing.PER_LAYER if trace else END_TO_END
    values = s["per_layer"] if trace else s["end_to_end"]
    return {f"{prefix}{name}": {"value": values[name], "unit": unit} for name, unit in table}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_lines():
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="etakit benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the results here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "etakit" / "__init__.py").is_file():
        print(f"error: no etakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    try:
        summaries = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        _print_summary(s, args.trace)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "git_sha": _git_sha(),
                    "src_lines": _src_lines(),
                    "cores": os.cpu_count(),
                    "python": sys.version.split()[0],
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "trace": args.trace,
                    "workloads": summaries,
                },
                fh,
                indent=1,
            )
    if args.workload:
        metrics = _metrics(summaries[0], args.trace)
    else:
        metrics = {}
        for s in summaries:
            metrics.update(_metrics(s, args.trace, prefix=f"{s['workload']}/"))
    result = {
        "correct": not any(s["problems"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
