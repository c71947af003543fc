"""shiftlab benchmark: one command, four workloads, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tail-point --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                   # every workload, one after another

Each pass runs in a fresh Python process (perfbench/worker.py) with the
checkout's ``src`` on PYTHONPATH and one thread for any BLAS/OpenMP pool.
With ``--trace 0`` the end-to-end metrics are printed: ``setup_s`` (median
over SETUP_SAMPLES fresh processes), ``units_per_s`` and ``peak_rss_mb``.
With ``--trace 1`` every operation of the timed pass runs once untraced and
once traced: the traced runs give the per-layer metrics, the paired times
give the tracing overhead, and the outputs of the two runs must be
byte-identical.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 when
every check passed, 1 when a check failed or a pass crashed, and 2 when the
checkout holds no shiftlab sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
# ergodic-long is not in BENCHMARK.json: the experiment's own ergodic check
# fails on about a quarter of seeds (see NOTES.md), so it runs only on
# request or with --workload all.
WORKLOADS = ("tail-point", "compare-symmetric", "window-exact", "ergodic-long")
SETUP_SAMPLES = 3
PASS_TIMEOUT_S = 60           # on top of --seconds; a pass past it is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """A pass that crashed or timed out: no result can be reported."""


class Runner:
    """Starts worker passes under ``root/.perfbench`` and cleans up after them."""

    def __init__(self, root: Path):
        self.root = root
        self.state = root / ".perfbench"
        self.work = self.state / "work"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.env.pop("SHIFTLAB_OUTPUT_DIR", None)   # it would redirect reports
        self.env.update({var: "1" for var in THREAD_VARS})
        self._count = 0

    def worker(self, workload: str, seed: int, seconds: float, *,
               trace: int = 0, setup_only: bool = False,
               spans: Path | None = None) -> dict:
        self._count += 1
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        result = self.work / "result.json"
        log = self.state / f"worker-{self._count}.log"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", str(self.work / "cli"), "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        with open(log, "w") as fobj:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=fobj, stderr=subprocess.STDOUT)
            try:
                proc.wait(timeout=seconds + PASS_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"{workload} pass timed out; log in {log}")
            finally:
                if proc.poll() is None:     # timed out or interrupted
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text()[-3000:]
            raise BenchError(f"{workload} pass exited with {proc.returncode}:\n{tail}")
        out = json.loads(result.read_text())
        log.unlink()
        shutil.rmtree(self.work, ignore_errors=True)
        return out


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def tally(ops: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) over a pass's [units, problems, ...] ops."""
    return (sum(op[0] for op in ops), sum(op[0] for op in ops if op[1]),
            [op[1] for op in ops if op[1]])


def run_end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    setups = [runner.worker(workload, seed, seconds, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    main = runner.worker(workload, seed, seconds)
    setups.append(main["setup_s"])
    attempted, failed, problems = tally(main["ops"])
    return {
        "pass": main, "attempted": attempted, "failed": failed,
        "problems": problems, "setup_samples": setups,
        "metrics": {
            "setup_s": statistics.median(setups),
            "units_per_s": attempted / main["timed_s"],
            "peak_rss_mb": main["peak_rss_mb"],
        },
    }


def run_traced(runner: Runner, workload: str, seed: int, seconds: float) -> dict:
    traces = runner.state / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    out = runner.worker(workload, seed, seconds, trace=1,
                        spans=traces / f"{workload}-seed{seed}.npz")
    attempted, failed, problems = tally(out["ops"])
    untraced_rate = attempted / sum(op[2] for op in out["ops"])
    traced_rate = attempted / sum(op[3] for op in out["ops"])
    layers = dict(out["layers"])
    layers["bench.tracing_overhead"] = 1.0 - traced_rate / untraced_rate
    return {"pass": out, "attempted": attempted, "failed": failed,
            "problems": problems, "metrics": layers,
            "rates": {"traced_units_per_s": traced_rate,
                      "untraced_units_per_s": untraced_rate}}


def report(workload: str, seed: int, trace: int, out: dict) -> dict:
    """Prints the human-readable summary; returns {name: {value, unit}}."""
    unit = out["pass"]["unit"]
    attempted, failed = out["attempted"], out["failed"]
    print(f"== {workload}  seed {seed}  trace {trace}")
    metrics = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        value = out["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        note = f"  ({unit} per second)" if spec["name"] == "units_per_s" else ""
        print(f"  {spec['name']:<42} {value:>14.6g} {spec['unit']}{note}")
    share = failed / attempted if attempted else 1.0
    print(f"  {'failed_share':<42} {share:>14.6g} ratio  "
          f"({failed} of {attempted} {unit} failed)")
    if trace:
        rates = out["rates"]
        print(f"  traced {rates['traced_units_per_s']:.6g} vs untraced "
              f"{rates['untraced_units_per_s']:.6g} {unit} per second")
    else:
        print("  setup samples: " + ", ".join(f"{s:.4f}" for s in out["setup_samples"]))
    ws = out["pass"]["working_set"]
    print(f"  working set (computed): {ws['bytes'] / 2**20:.2f} MiB, {ws['what']}")
    for problem in out["problems"][:5]:
        print(f"  FAILED: {problem}")
    return metrics


def run_one(runner: Runner, workload: str, seed: int, seconds: float,
            trace: int) -> dict:
    out = (run_traced if trace else run_end_to_end)(runner, workload, seed, seconds)
    metrics = report(workload, seed, trace, out)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(runner.root), "nproc": os.cpu_count(),
        "versions": out["pass"]["versions"],
        "working_set": out["pass"]["working_set"],
        "attempted": out["attempted"], "failed": out["failed"],
        "problems": out["problems"], "metrics": metrics,
        "setup_samples": out.get("setup_samples"), "rates": out.get("rates"),
    }
    results = runner.state / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1))
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shiftlab" / "__init__.py").is_file():
        print(f"no shiftlab sources under {root / 'src'}; run from the root of "
              "a shiftlab checkout", file=sys.stderr)
        return 2
    runner = Runner(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    try:
        for name in names:
            records[name] = run_one(runner, name, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in records.values())
    failed = sum(r["failed"] for r in records.values())
    if len(records) == 1:
        metrics = next(iter(records.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in records.items()
                   for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
