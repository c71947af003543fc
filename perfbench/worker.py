"""One benchmark pass in a fresh process: set-up, then the timed phase.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
Set-up time runs from the first line of this file (before shiftlab is
imported) to the end of the warm-up call.  The pass writes its result as
JSON to ``--result``; stdout carries only shiftlab's own CLI messages.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where a traced pass saves its spans")
    return p.parse_args(argv)


def run_op(wl, k: int):
    """(outcome, seconds) of operation k."""
    t0 = time.perf_counter()
    try:
        outcome = wl.run_op(k)
    except Exception as exc:  # an operation that raises counts as failed
        outcome = workloads.Outcome(wl.op_units, [f"{type(exc).__name__}: {exc}"],
                                    "error")
    return outcome, time.perf_counter() - t0


def run_traced_op(wl, k: int, rec):
    undo = tracing.install(rec)
    try:
        with rec.span("bench.harness"):
            return run_op(wl, k)
    finally:
        tracing.uninstall(undo)


def timed_phase(wl, seconds: float, rec) -> dict:
    """Runs operations until ``seconds`` have passed.

    With a recorder, every operation runs twice, untraced and traced, in
    alternating order so that drifts in machine speed and cache warmth
    cancel out of the tracing overhead; both outputs must be identical.
    """
    ops = []        # [units, problems, seconds, traced seconds]
    censored = replicas = 0
    t_start = time.perf_counter()
    k = 0
    while time.perf_counter() - t_start < seconds:
        if rec is None:
            outcome, secs = run_op(wl, k)
            traced_secs = None
        elif k % 2:
            traced, traced_secs = run_traced_op(wl, k, rec)
            outcome, secs = run_op(wl, k)
        else:
            outcome, secs = run_op(wl, k)
            traced, traced_secs = run_traced_op(wl, k, rec)
        problems = outcome.problems
        if rec is not None and traced.digest != outcome.digest:
            problems = problems + ["traced and untraced outputs differ"]
        ops.append([outcome.units, problems, secs, traced_secs])
        censored += outcome.censored
        replicas += outcome.replicas
        k += 1
    return {"timed_s": time.perf_counter() - t_start, "ops": ops,
            "censored": censored, "replicas": replicas}


def main(argv=None) -> None:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    wl.warm_up()
    result = {
        "setup_s": time.perf_counter() - T0,
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "unit": wl.unit,
        "working_set": wl.working_set(),
    }
    if not args.setup_only:
        rec = tracing.SpanRecorder() if args.trace else None
        result.update(timed_phase(wl, args.seconds, rec))
        if rec:
            result["layers"] = tracing.layer_metrics(
                rec, result["censored"], result["replicas"])
            if args.spans:
                rec.save(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
