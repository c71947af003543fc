"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import math
from fractions import Fraction

from conftest import record_criterion
from helpers import (Excursion, excursion_mass, permutation_oracle,
                     tau_n_convergence_test)

from shiftlab.embedding import compute_t_star
from shiftlab.experiments import (ExperimentConfig, run_cost_compare,
                                  run_embed_law, run_ergodic, run_tail)
from shiftlab.gauges import (capped, default_gauges, eval_gauge, log1p, power,
                             rational)
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.stable_alloc import compute_N, naive_allocation, stable_allocation
from shiftlab.transport import (random_interleaved_config,
                                repair_sweep, sample_feasible_matrix,
                                stable_indicator)
from shiftlab.walk import WalkConfig, build_ledger, sample_walk

GAUGES = default_gauges()


def _pairs():
    nu = DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    return (split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1)),
            split_measures(DiscreteMeasure.delta(0), nu))


def make_cfg(pair, experiment, seed, replicas, hf, hb=4, max_horizon=1 << 20,
             **kw):
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=hf, horizon_bwd=hb,
                      seed=seed, start_law=pair.mu)
    return ExperimentConfig(walk=walk, pair=pair,
                            gauges=kw.pop("gauges", GAUGES),
                            replicas=replicas, experiment=experiment,
                            max_horizon=max_horizon, **kw)


def _stable_rhs(cfg, match, N):
    return {g.label: 2.0 * sum(
        eval_gauge(g, float(cfg.b[match.tau[i]] - cfg.a[i])) for i in range(N))
        for g in GAUGES}


def test_criterion_1_inequality_suite():
    target = 10_000
    checked = 0
    min_margin = math.inf
    max_eq_gap = 0.0
    seed = 50_000
    while checked < target:
        cfg, N = random_interleaved_config(seed, 2 + seed % 6)
        seed += 1
        if N > 8:
            continue
        match = stable_allocation(cfg)
        rhs = _stable_rhs(cfg, match, N)
        pi0 = stable_indicator(cfg, N, match)
        for g in GAUGES:
            max_eq_gap = max(max_eq_gap, abs(pi0.cost(g) - rhs[g.label]))
        for k in range(4):
            pi = sample_feasible_matrix(cfg, N, seed=seed * 10 + k)
            for g in GAUGES:
                min_margin = min(min_margin, pi.cost(g) - rhs[g.label])
            checked += 1
    ok = min_margin >= -1e-10 and max_eq_gap <= 1e-9
    record_criterion(
        1, "window inequality", ok,
        f"{checked} matrices, min margin {min_margin:.3e}, "
        f"stable equality gap {max_eq_gap:.1e}")
    assert ok


def test_criterion_2_oracle_equivalence():
    target = 1_000
    checked = 0
    worst = 0.0
    exact_fail = 0
    seed = 80_000
    while checked < target:
        cfg, N = random_interleaved_config(seed, 1 + seed % 6)
        seed += 1
        if N > 8:
            continue
        match = stable_allocation(cfg)
        stable_gaps = sorted(cfg.b[match.tau[i]] - cfg.a[i] for i in range(N))
        for g in GAUGES:
            oracle = permutation_oracle(cfg, g, N=N)
            stable_cost = sum(
                eval_gauge(g, float(cfg.b[match.tau[i]] - cfg.a[i]))
                for i in range(N))
            worst = max(worst, abs(stable_cost - oracle["min_cost"]))
        # Rational comparison before the gauge: the linear-cost minimum has
        # the same gap multiset as the stable match.
        lin = permutation_oracle(cfg, power(1), N=N)
        lin_gaps = sorted(cfg.b[j] - cfg.a[i] for i, j in enumerate(lin["sigma"]))
        exact_fail += sum(lin_gaps) != sum(stable_gaps)
        checked += 1
    ok = worst <= 1e-10 and exact_fail == 0
    record_criterion(
        2, "brute-force oracle equivalence", ok,
        f"{checked} instances, max cost gap {worst:.1e}, "
        f"{exact_fail} exact mismatches")
    assert ok


def test_criterion_3_repair_sweep():
    instances = 300
    bad_monotone = 0
    bad_fixpoint = 0
    unconverged = 0
    for seed in range(20_000, 20_000 + instances):
        cfg, N = random_interleaved_config(seed, 2 + seed % 5)
        pi = sample_feasible_matrix(cfg, N, seed=seed + 1)
        out = repair_sweep(pi)
        if not out["converged"]:
            unconverged += 1
            continue
        for g in GAUGES:
            costs = [m.cost(g) for m in out["trace"]]
            if any(x < y - 1e-9 for x, y in zip(costs, costs[1:])):
                bad_monotone += 1
        if out["matrix"].entries != stable_indicator(cfg, N).entries:
            bad_fixpoint += 1
    ok = bad_monotone == 0 and bad_fixpoint == 0 and unconverged == 0
    record_criterion(
        3, "crossing repair sweep", ok,
        f"{instances} instances, {unconverged} unconverged, "
        f"{bad_monotone} cost increases, {bad_fixpoint} wrong fixpoints")
    assert ok


def test_criterion_4_stable_allocation_invariants():
    target = 10_000
    failures = 0
    for seed in range(target):
        cfg, N = random_interleaved_config(seed, 1 + seed % 25)
        match = stable_allocation(cfg)
        tau = match.tau
        a, b = cfg.a, cfg.b
        try:
            assert all(b[j] > a[i] for i, j in enumerate(tau))
            assert len(set(tau)) == len(tau)
            spans = sorted((min(a[i], b[j]), max(a[i], b[j]))
                           for i, j in enumerate(tau))
            stack = []
            for lo, hi in spans:
                while stack and stack[-1] < lo:
                    stack.pop()
                assert not stack or hi < stack[-1]   # nested or disjoint
                stack.append(hi)
            for m in range(N - 1, min(len(a), len(b))):
                assert tau[m] == m
            assert naive_allocation(cfg).tau == tau
        except AssertionError:
            failures += 1
    ok = failures == 0
    record_criterion(
        4, "stable allocation invariants", ok,
        f"{target} instances, {failures} failures")
    assert ok


def test_criterion_5_embedding_law():
    delta_pair, symmetric_pair = _pairs()
    rep_d = run_embed_law(make_cfg(delta_pair, "embed_law", seed=12,
                                   replicas=2_000, hf=1024))
    exact_hit = (rep_d.data["tv_distance"] == 0.0
                 and rep_d.data["completed"] > 0)
    rep_s = run_embed_law(make_cfg(symmetric_pair, "embed_law", seed=12,
                                   replicas=10_000, hf=1024))
    within = True
    worst_z = 0.0
    for row in rep_s.tables["law"]:
        z = abs(row["observed"] - row["target"]) / row["binomial_se"]
        worst_z = max(worst_z, z)
        within = within and z <= 3.0
    ok = exact_hit and within
    record_criterion(
        5, "embedding law", ok,
        f"point target hit on {rep_d.data['completed']} completed replicas, "
        f"symmetric worst z {worst_z:.2f} over {rep_s.data['completed']} "
        "completed")
    assert ok


def test_criterion_6_pathwise_optimality():
    _, symmetric_pair = _pairs()
    cfg = make_cfg(symmetric_pair, "cost_compare", seed=21, replicas=1_000,
                   hf=1 << 12, max_horizon=1 << 18)
    rep = run_cost_compare(cfg)
    ensemble_ok = all(row["paired_diff_mean"] >= -1e-12
                      for row in rep.tables["costs"])
    ok = rep.data["pathwise_violations"] == 0 and ensemble_ok
    record_criterion(
        6, "pathwise excursion optimality", ok,
        f"{rep.data['paths_used']} paths, "
        f"{rep.data['pathwise_violations']} pathwise violations, "
        f"ensemble dominance {'holds' if ensemble_ok else 'fails'}")
    assert ok


def test_criterion_7_ergodic_identity():
    _, symmetric_pair = _pairs()
    finite_mean_gauges = (log1p(), capped(3), rational(),
                          power(Fraction(1, 10)))
    all_ok = True
    details = []
    for seed in (0, 1, 6):
        cfg = make_cfg(symmetric_pair, "ergodic", seed=seed, replicas=1,
                       hf=1 << 18, hb=1 << 18, max_horizon=1 << 20,
                       gauges=finite_mean_gauges)
        rep = run_ergodic(cfg, ensemble_replicas=800)
        bad = [s["gauge"] for s in rep.data["summary"]
               if not (s["fwd_ok"] and s["bwd_ok"])]
        all_ok = all_ok and not bad
        details.append(f"seed {seed}: {'ok' if not bad else 'off ' + str(bad)}")
    record_criterion(7, "ergodic time vs ensemble averages", all_ok,
                     "; ".join(details))
    assert all_ok


def test_criterion_8_tail_moments():
    delta_pair, _ = _pairs()
    cfg = make_cfg(delta_pair, "tail", seed=3, replicas=10_000, hf=1024,
                   max_horizon=1 << 24)
    rep = run_tail(cfg, n_boot=60, checkpoints=(1_000, 10_000))
    alpha = rep.data["alpha_hat"]
    alpha_ok = alpha is not None and 0.15 <= alpha <= 0.35
    quarter_ok = rep.data["quarter_increasing"]
    tenth_ok = (rep.data["tenth_rel_change"] is not None
                and rep.data["tenth_rel_change"] < 0.10)
    ok = alpha_ok and quarter_ok and tenth_ok
    record_criterion(
        8, "tail exponent and partial moments", ok,
        f"alpha_hat {alpha:.3f} (ci {rep.data['alpha_ci'][0]:.2f}-"
        f"{rep.data['alpha_ci'][1]:.2f}), quarter-moment increasing: "
        f"{quarter_ok}, tenth-moment drift {rep.data['tenth_rel_change']:.3f}")
    assert ok


def test_criterion_9_convergence_harness():
    _, symmetric_pair = _pairs()
    walk = WalkConfig(dx=Fraction(1), horizon_fwd=1 << 14, horizon_bwd=64,
                      seed=0, start_law=symmetric_pair.mu)
    all_ok = True
    details = []
    for rep_id in (0, 49):
        led = build_ledger(sample_walk(walk, rep_id), symmetric_pair)
        res = compute_t_star(led, symmetric_pair)
        exc = Excursion(0, res["t_star"], excursion_mass(led, 0, res["t_star"]))
        out = tau_n_convergence_test(led, exc, [4, 16, 64, 256])
        mesh = Fraction(exc.right - exc.left, 256)
        rounds = [r["sup_rounding"] for r in out["rows"]]
        ok = (out["monotone_nonincreasing"]
              and out["final_distance"] <= mesh
              and all(x >= y for x, y in zip(rounds, rounds[1:])))
        all_ok = all_ok and ok
        details.append(
            f"replica {rep_id}: final distance {out['final_distance']} "
            f"(mesh {mesh})")
    record_criterion(9, "discretized allocation convergence", all_ok,
                     "; ".join(details))
    assert all_ok


def test_criterion_10_determinism():
    delta_pair, symmetric_pair = _pairs()
    runs = [
        (run_embed_law,
         make_cfg(symmetric_pair, "embed_law", seed=5, replicas=500, hf=1024)),
        (run_cost_compare,
         make_cfg(symmetric_pair, "cost_compare", seed=5, replicas=50,
                  hf=1 << 12, max_horizon=1 << 15)),
        (run_tail,
         make_cfg(delta_pair, "tail", seed=5, replicas=500, hf=1024,
                  max_horizon=1 << 16)),
    ]
    mismatches = 0
    for runner, cfg in runs:
        if runner(cfg).to_json() != runner(cfg).to_json():
            mismatches += 1
    ok = mismatches == 0
    record_criterion(
        10, "byte-identical reruns", ok,
        f"{len(runs)} experiments rerun, {mismatches} report mismatches")
    assert ok
