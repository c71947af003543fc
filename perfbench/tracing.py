"""Outside-in span tracing of shiftlab's public functions.

The recorder wraps each layer function named in LAYERS and keeps one span
(name, start, end, parent) per call in flat in-memory arrays; spans are
written out once, when the run ends.  A span's self time is its duration
minus the durations of its direct children.

shiftlab modules import these functions by name, so every name is patched
in the namespace of each module that calls it (``shiftlab.experiments.
build_ledger``, ``shiftlab.comparators.match_slots``, ...) and methods are
patched on their class.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_ROOT = -1


class SpanRecorder:
    """In-memory span store plus the counters the layer hooks accumulate."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [_ROOT]
        self.counters: dict[str, float] = defaultdict(float)
        self._ledger_key = None
        self._ledger_size = 0

    def _nid(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        return sid

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``hook(recorder, args, result)`` runs after the span closes, so the
        counting it does is charged to the caller, not to the layer.
        """
        nid = self._nid(name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._open(nid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                self._stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if hook is not None:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._nid(name))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.start[sid] = t0
            self.end[sid] = t1

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Per-span duration minus the summed durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
    return dur - covered


def summarize(names: list[str], name_id: np.ndarray, parent: np.ndarray,
              start: np.ndarray, end: np.ndarray) -> dict[str, dict]:
    """{name: {calls, self_s, total_s, p50_ms, p99_ms}} over all spans.

    ``total_s`` is inclusive time; the percentiles are of inclusive
    per-call durations.
    """
    own = self_times(parent, start, end)
    dur = end - start
    out = {}
    for nid, name in enumerate(names):
        sel = name_id == nid
        calls = int(sel.sum())
        d = dur[sel]
        out[name] = {
            "calls": calls,
            "self_s": float(own[sel].sum()),
            "total_s": float(d.sum()),
            "p50_ms": float(np.percentile(d, 50) * 1e3) if calls else 0.0,
            "p99_ms": float(np.percentile(d, 99) * 1e3) if calls else 0.0,
        }
    return out


# ---------------------------------------------------------------------------
# layer hooks: counts measured where the work happens

def _on_replica(rec, args, out):
    rec.counters["steps_simulated"] += out["horizon"]
    if out["censored"]:
        return
    rec.counters["useful_steps"] += out["t_star"]


def _on_steps(rec, args, out):
    rec.counters["steps_drawn"] += len(out)


def _on_ledger(rec, args, ledger):
    # Ledgers of one replica are rebuilt back to back at each horizon
    # doubling; the last one built for a path is its final ledger.
    path = args[0]
    key = (path.cfg.seed, path.replica)
    size = ledger.hb + ledger.hf + 1
    rec.counters["ledger_steps_built"] += size
    if key != rec._ledger_key:
        rec.counters["ledger_steps_final"] += rec._ledger_size
        rec._ledger_key = key
    rec._ledger_size = size


def _on_tau_map(rec, args, out):
    ledger, left, right = args
    tau, unresolved = out
    last = ledger.hf if unresolved else max(right, max(tau.values(), default=right))
    rec.counters["tau_map_steps_scanned"] += last - left + 1


def _on_match(rec, args, pairs):
    _ledger, left, right = args
    rec.counters["matched_slots"] += len(pairs)
    rec.counters["match_window_steps"] += right - left + 1


def _on_points(rec, args, _out):
    cfg = args[0]
    rec.counters["points"] += len(cfg.a) + len(cfg.b)


def _on_sweep(rec, args, out):
    rec.counters["repair_steps"] += out["steps"]
    rec.counters["trace_entries"] += sum(len(m.entries) for m in out["trace"])


# (span name, [(module or class path, attribute), ...], hook)
LAYERS = [
    # The whole CLI call: config parsing, the experiment runner and report
    # writing.  Its self time is the runner's own work outside the layers.
    ("experiments.runner", [("shiftlab.cli", "main")], None),
    ("experiments.run_replica",
     [("shiftlab.experiments:FirstHitEngine", "run_replica")], _on_replica),
    ("rng.take_steps", [("shiftlab.rng:BitStream", "take_steps")], _on_steps),
    ("rng.BitStream_init", [("shiftlab.rng:BitStream", "__init__")], None),
    ("walk.sample_walk", [("shiftlab.experiments", "sample_walk")], None),
    ("walk.extend_fwd", [("shiftlab.walk:WalkPath", "extend_fwd")], None),
    ("walk.build_ledger", [("shiftlab.experiments", "build_ledger")], _on_ledger),
    ("walk.inverse_local_time",
     [("shiftlab.experiments", "inverse_local_time")], None),
    ("embedding.compute_t_star", [("shiftlab.experiments", "compute_t_star")], None),
    ("embedding.tau_star_map", [("shiftlab.experiments", "tau_star_map")], _on_tau_map),
    ("embedding.match_slots", [("shiftlab.comparators", "match_slots"),
                               ("shiftlab.experiments", "match_slots")], _on_match),
    ("comparators.extract_slots", [("shiftlab.comparators", "extract_slots")], None),
    ("comparators.apply_comparator",
     [("shiftlab.experiments", "apply_comparator")], None),
    ("comparators.check_matching", [("shiftlab.experiments", "check_matching")], None),
    ("comparators.matching_cost", [("shiftlab.experiments", "matching_cost")], None),
    ("gauges.eval_gauge", [("shiftlab.experiments", "eval_gauge"),
                           ("shiftlab.comparators", "eval_gauge"),
                           ("shiftlab.transport", "eval_gauge"),
                           ("shiftlab.embedding", "eval_gauge")], None),
    ("stable_alloc.stable_allocation",
     [("shiftlab.stable_alloc", "stable_allocation"),
      ("shiftlab.transport", "stable_allocation")], _on_points),
    ("stable_alloc.naive_allocation",
     [("shiftlab.stable_alloc", "naive_allocation")], None),
    ("stable_alloc.compute_N", [("shiftlab.stable_alloc", "compute_N"),
                                ("shiftlab.transport", "compute_N")], None),
    ("transport.sample_feasible_matrix",
     [("shiftlab.transport", "sample_feasible_matrix")], None),
    ("transport.inequality_check", [("shiftlab.transport", "inequality_check")], None),
    ("transport.repair_sweep", [("shiftlab.transport", "repair_sweep")], _on_sweep),
    ("transport.find_crossing", [("shiftlab.transport", "find_crossing")], None),
    ("transport.TransportMatrix_cost",
     [("shiftlab.transport:TransportMatrix", "cost")], None),
]


def _owner(target: str):
    module, _, cls = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(rec: SpanRecorder) -> list:
    """Patch every layer function; returns the undo list for ``uninstall``."""
    undo = []
    for name, targets, hook in LAYERS:
        fn = getattr(_owner(targets[0][0]), targets[0][1])
        traced = rec.wrap(name, fn, hook)
        for target, attr in targets:
            owner = _owner(target)
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, traced)
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, fn in reversed(undo):
        setattr(owner, attr, fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: SpanRecorder, censored: int, replicas: int) -> dict[str, float]:
    """Every per-layer metric of a traced run except the tracing overhead.

    Each traced operation runs inside one ``bench.harness`` span, so the
    harness spans' total is the traced wall time.
    """
    stats = summarize(rec.names, **rec.arrays())
    c = rec.counters
    ledger_final = c["ledger_steps_final"] + rec._ledger_size
    out = {}
    for name, st in stats.items():
        for key in ("calls", "self_s", "p50_ms", "p99_ms"):
            out[f"{name}.{key}"] = st[key]
    replica = stats["experiments.run_replica"]
    out.update({
        "experiments.steps_simulated": c["steps_simulated"],
        "experiments.ns_per_step": _ratio(replica["total_s"] * 1e9,
                                          c["steps_simulated"]),
        "experiments.useful_step_share": _ratio(c["useful_steps"],
                                                c["steps_simulated"]),
        "experiments.censored_share": _ratio(censored, replicas),
        "rng.steps_drawn": c["steps_drawn"],
        "walk.ledger_steps_built": c["ledger_steps_built"],
        "walk.ledger_rebuild_ratio": _ratio(c["ledger_steps_built"], ledger_final),
        "embedding.tau_star_map.steps_scanned": c["tau_map_steps_scanned"],
        "embedding.slots_per_scanned_step": _ratio(c["matched_slots"],
                                                   c["match_window_steps"]),
        "stable_alloc.points": c["points"],
        "transport.repair_steps": c["repair_steps"],
        "transport.trace_entries": c["trace_entries"],
        "bench.accounted_share": _ratio(
            sum(st["self_s"] for name, st in stats.items()
                if name != "bench.harness"), stats["bench.harness"]["total_s"]),
    })
    return out
