from fractions import Fraction

import numpy as np
import pytest

from helpers import LocalTimeLedger, ScriptedPath

from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.rng import BitStream, STREAM_START
from shiftlab.walk import (WalkConfig, build_ledger, draw_start,
                           inverse_local_time, sample_walk)


def test_config_validation(delta_pair):
    with pytest.raises(ConfigError):
        WalkConfig(dx=Fraction(0), horizon_fwd=4, horizon_bwd=4, seed=0,
                   start_law=delta_pair.mu)
    with pytest.raises(ConfigError):
        WalkConfig(dx=Fraction(1), horizon_fwd=0, horizon_bwd=4, seed=0,
                   start_law=delta_pair.mu)
    sub = DiscreteMeasure.from_atoms([(0, Fraction(1, 2))])
    with pytest.raises(ConfigError):
        WalkConfig(dx=Fraction(1), horizon_fwd=4, horizon_bwd=4, seed=0,
                   start_law=sub)


@pytest.mark.parametrize("seed", [-1, 2**53, 2**60, 2**63, 2**64 + 5])
def test_config_rejects_seeds_outside_63_bits(delta_pair, seed):
    with pytest.raises(ConfigError, match="seed"):
        WalkConfig.from_json({"horizon_fwd": 4, "horizon_bwd": 4, "seed": seed},
                             start_law=delta_pair.mu)
    WalkConfig(dx=Fraction(1), horizon_fwd=4, horizon_bwd=4, seed=2**53 - 1,
               start_law=delta_pair.mu)


def test_largest_accepted_seeds_share_no_stream():
    # Keys round through float64 only past 2^53: the two largest accepted
    # seeds give distinct streams for replicas 0..63 in every role.
    streams = [{tuple(BitStream(seed, rep, role).take_words(2).tolist())
                for rep in range(64) for role in range(4)}
               for seed in (2**53 - 2, 2**53 - 1)]
    assert len(streams[0]) == len(streams[1]) == 256
    assert not streams[0] & streams[1]


def test_dt_is_dx_squared(delta_pair):
    cfg = WalkConfig(dx=Fraction(1, 10), horizon_fwd=4, horizon_bwd=4, seed=0,
                     start_law=delta_pair.mu)
    assert cfg.dt == Fraction(1, 100)


def test_path_is_nearest_neighbor(small_walk_cfg):
    path = sample_walk(small_walk_cfg)
    for n in range(-path.horizon_bwd + 1, path.horizon_fwd + 1):
        assert abs(path.positions(n) - path.positions(n - 1)) == 1


def test_extension_matches_one_shot(small_walk_cfg, delta_pair):
    long_cfg = WalkConfig(dx=small_walk_cfg.dx, horizon_fwd=1024,
                          horizon_bwd=small_walk_cfg.horizon_bwd,
                          seed=small_walk_cfg.seed, start_law=delta_pair.mu)
    short = sample_walk(small_walk_cfg)
    short.extend_fwd(1024)
    long = sample_walk(long_cfg)
    assert np.array_equal(short.pos_fwd, long.pos_fwd)


def test_draw_start_inverse_cdf():
    law = DiscreteMeasure.from_atoms([(-2, Fraction(1, 4)), (5, Fraction(3, 4))])
    counts = {-2: 0, 5: 0}
    for rep in range(400):
        counts[draw_start(law, BitStream(123, rep, STREAM_START))] += 1
    assert counts[-2] + counts[5] == 400
    assert 60 <= counts[-2] <= 140  # ~5 sigma around 100


def test_ledger_hand_counts(delta_pair):
    # mu = delta_0, nu = delta_1 on the scripted path 0,1,0,1.
    path = ScriptedPath([0, 1, 0, 1])
    led = LocalTimeLedger(path, delta_pair)
    assert led.visits(0, 3) == 2 and led.visits(1, 3) == 2
    assert [str(led.D(n)) for n in range(4)] == ["1", "0", "1", "0"]
    assert led.Lmu(3) == 2 and led.Lnu(3) == 2


def test_ledger_negative_steps(delta_pair):
    path = ScriptedPath([0, 1], [0, 1, 0])
    led = LocalTimeLedger(path, delta_pair)
    # Backward functionals cover steps [n, 0].
    assert led.Lmu(-2) == 2 and led.Lnu(-2) == 1
    assert led.D(-2) == 1


def test_ledger_brute_force_oracle(symmetric_pair, small_walk_cfg):
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=128, horizon_bwd=32, seed=3,
                     start_law=symmetric_pair.mu)
    path = sample_walk(cfg)
    led = LocalTimeLedger(path, symmetric_pair)
    for n in (-32, -7, 0, 1, 17, 128):
        rng = range(0, n + 1) if n >= 0 else range(n, 1)
        lmu = sum((symmetric_pair.mu.weight(path.positions(k)) for k in rng),
                  Fraction(0))
        lnu = sum((symmetric_pair.nu.weight(path.positions(k)) for k in rng),
                  Fraction(0))
        assert led.Lmu(n) == lmu
        assert led.Lnu(n) == lnu
        assert led.D(n) == lmu - lnu
    # build_ledger's events are the dense ledger's.
    for x, y in zip(build_ledger(path, symmetric_pair).events(-32, 128),
                    led.events(-32, 128)):
        np.testing.assert_array_equal(x, y)


def test_ledger_range_errors(delta_pair):
    led = LocalTimeLedger(ScriptedPath([0, 1, 0]), delta_pair)
    with pytest.raises(HorizonExceededError):
        led.Lmu(3)
    with pytest.raises(HorizonExceededError):
        led.Lmu(-1)  # scripted backward horizon is 0


def test_inverse_local_time_semantics(delta_pair):
    # Path 0,1,0,1: mu+nu mass per step is 1,1,1,1.
    led = build_ledger(ScriptedPath([0, 1, 0, 1], [0, 1, 0]), delta_pair)
    assert inverse_local_time(led, 2) == 1
    assert inverse_local_time(led, 1) == 0
    assert inverse_local_time(led, 4) == 3  # the last forward visit
    with pytest.raises(HorizonExceededError):
        inverse_local_time(led, 10)
    # r = 0: last step before the functional first increases (0 is charged).
    assert inverse_local_time(led, 0) == -1
    # Backward: mass over [-k, 0]; visits at 0, -1 and -2.
    assert inverse_local_time(led, -2) == -1
    assert inverse_local_time(led, -3) == -2


def test_to_csv(delta_pair, tmp_path):
    path = ScriptedPath([0, 1, 0])
    led = LocalTimeLedger(path, delta_pair)
    f = tmp_path / "ledger.csv"
    with open(f, "w") as fobj:
        led.to_csv(fobj)
    lines = f.read_text().strip().splitlines()
    assert lines[0] == "step,Lmu,Lnu,D"
    assert len(lines) == 4


def test_replicas_are_independent(small_walk_cfg):
    a = sample_walk(small_walk_cfg, replica=0)
    b = sample_walk(small_walk_cfg, replica=1)
    assert not np.array_equal(a.pos_fwd, b.pos_fwd)
