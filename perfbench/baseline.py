"""Repeat the benchmark over several seeds and record the baseline.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every workload it makes one untraced run per seed and, unless
``--no-trace``, one traced run on the first seed, each through
``perfbench/run.py`` with the run length from ``BENCHMARK.json``.  It reports each
end-to-end metric's median and the spread of its runs (interquartile
distance over the median, from ``statistics.quantiles(values, n=4)``) next
to a third of the metric's bound, and writes everything, with the run
environment and the cache sizes, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import SPEC, WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def cpu_caches() -> dict[str, str]:
    """Cache sizes of cpu0, read-only from sysfs (Linux); empty elsewhere."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def bench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["wall_s"] = wall
    record["line"] = line
    return record


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def summarize(runs: list[dict]) -> dict:
    out = {}
    for spec in SPEC["end_to_end"]:
        values = [r["metrics"][spec["name"]]["value"] for r in runs]
        med, q1, q3, spr = spread(values)
        out[spec["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spr,
                             "bound": spec["bound"], "values": values}
    return out


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--no-trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    result = {"run_seconds": SPEC["run_seconds"], "seeds": seeds,
              "env": {"nproc": os.cpu_count(), "caches": cpu_caches()},
              "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            rec = bench(workload, seed, 0)
            runs.append(rec)
            m = rec["metrics"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.5g}" for k, v in m.items())
                + f", failed {rec['failed']}/{rec['attempted']}, wall {rec['wall_s']:.1f} s",
                flush=True)
        entry = {"runs": [{k: r[k] for k in ("seed", "attempted", "failed", "problems",
                                             "metrics", "setup_samples", "wall_s")}
                          for r in runs],
                 "summary": summarize(runs) if len(runs) >= 2 else None,
                 "working_set": runs[0]["working_set"]}
        result["env"].update(git_sha=runs[0]["git_sha"], versions=runs[0]["versions"])
        if not args.no_trace:
            rec = bench(workload, seeds[0], 1)
            entry["traced"] = {k: rec[k] for k in ("seed", "attempted", "failed",
                                                   "metrics", "rates", "wall_s")}
            print(f"{workload} traced seed {seeds[0]}: wall {rec['wall_s']:.1f} s, "
                  f"overhead {rec['metrics']['bench.tracing_overhead']['value']:.3f}",
                  flush=True)
        result["workloads"][workload] = entry
        if entry["summary"]:
            for name, s in entry["summary"].items():
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
                print(f"  {name:<12} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                      f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  "
                      f"bound/3 {s['bound'] / 3:.4f}  {flag}", flush=True)
        if args.out:
            Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main()
