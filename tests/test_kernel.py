"""The balancing kernel against the per-step oracles.

``parenthesis_match`` is the one LIFO matching behind ``match_slots``,
``tau_star_map``, ``extract_slots`` and ``stable_allocation``, and the
tests' ``cost_of_tau_star``.  These tests compare its derivations on the
event ledger with ``compute_tau_star`` and ``cost_of_tau_star_rescan`` on
the dense one, for random orthogonal exact pairs, including mu-atoms that
open several slots per visit, and the kernel itself with its plain loop.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (Excursion, LocalTimeLedger, ScriptedPath,
                     compute_tau_star, cost_of_tau_star,
                     cost_of_tau_star_rescan, excursion_from, excursion_mass,
                     loop_parenthesis_match, mu_charged_steps)

from shiftlab.embedding import match_slots, parenthesis_match, tau_star_map
from shiftlab.errors import ConfigError, HorizonExceededError
from shiftlab.gauges import default_gauges
from shiftlab.measures import DiscreteMeasure, split_measures
from shiftlab.walk import WalkConfig, build_ledger, sample_walk


def test_kernel_closes_before_opens():
    pairs, unmatched = parenthesis_match("abcd", [2, 1, 0, 0], [0, 1, 1, 2])
    assert pairs == [("a", "b"), ("b", "c"), ("a", "d")]
    assert unmatched == []
    pairs, unmatched = parenthesis_match([0, 1], [0, 1], [1, 0])
    assert pairs == [] and unmatched == [1]


def test_tau_star_map_pushes_opens_past_the_window():
    # C(0..5) = 1, 1, 2, 1, 1, 0: step 2 opens inside tau*(0) = 5 and closes
    # at 3.  Step 2 lies past right = 1, so it is not reported, but its slot
    # must still be pushed or step 3 would close step 0.
    pair = split_measures(DiscreteMeasure.delta(0), DiscreteMeasure.delta(1))
    led = build_ledger(ScriptedPath([0, -1, 0, 1, 2, 1]), pair)
    assert tau_star_map(led, 0, 1) == ({0: 5}, [])
    assert tau_star_map(led, 0, 3) == ({0: 5, 2: 3}, [])


def test_non_orthogonal_pair_is_rejected():
    # mu = (d0 + d1)/2 and nu = (d-1 + d1)/2 share site 1.  Before the check
    # match_slots and tau_star_map disagreed on 27 of 35 charged steps here.
    mu = DiscreteMeasure.from_atoms([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    nu = DiscreteMeasure.from_atoms([(-1, Fraction(1, 2)), (1, Fraction(1, 2))])
    pair = split_measures(mu, nu)
    assert pair.unit_nu_slots and not pair.orthogonal
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=4096, horizon_bwd=16, seed=3,
                     start_law=mu)
    led = build_ledger(sample_walk(cfg, 0), pair)
    with pytest.raises(ConfigError, match="orthogonal"):
        match_slots(led, 0, 2000)
    with pytest.raises(ConfigError, match="orthogonal"):
        tau_star_map(led, 0, 2000)
    with pytest.raises(ConfigError, match="orthogonal"):
        cost_of_tau_star(led, Excursion(0, 2000, excursion_mass(led, 0, 2000)),
                         default_gauges()[0])


@st.composite
def orthogonal_exact_ledgers(draw):
    """The event and dense ledgers of a path, for an orthogonal pair with
    unit nu-atoms and any mu-atoms."""
    q = draw(st.integers(1, 4))
    sites = draw(st.permutations(range(-3, 4)))
    nu_sites = sites[:q]
    n_mu = draw(st.integers(1, min(q, 7 - q)))
    cuts = sorted(draw(st.sets(st.integers(1, q - 1), min_size=n_mu - 1,
                               max_size=n_mu - 1))) if n_mu > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [q])]
    mu = DiscreteMeasure.from_atoms(
        [(s, Fraction(k, q)) for s, k in zip(sites[q:q + n_mu], sizes)], q)
    nu = DiscreteMeasure.from_atoms([(s, Fraction(1, q)) for s in nu_sites], q)
    pair = split_measures(mu, nu)
    cfg = WalkConfig(dx=Fraction(1), horizon_fwd=draw(st.sampled_from([256, 2048])),
                     horizon_bwd=64, seed=draw(st.integers(0, 10**6)),
                     start_law=mu)
    path = sample_walk(cfg, draw(st.integers(0, 50)))
    return build_ledger(path, pair), LocalTimeLedger(path, pair)


@given(orthogonal_exact_ledgers(), st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_derivations_match_per_step_oracle(ledgers, data):
    led, dense = ledgers
    left = data.draw(st.integers(-led.hb, 0))
    right = data.draw(st.integers(left, led.hf))
    charged = [int(s) for s in mu_charged_steps(led, left, right)]

    tau, unresolved = tau_star_map(led, left, right)
    assert sorted(set(tau) | set(unresolved)) == charged
    for s in charged:
        if s in tau:
            assert tau[s] == compute_tau_star(dense, s)
        else:
            with pytest.raises(HorizonExceededError):
                compute_tau_star(dense, s)

    # A step's slots are all matched inside [left, right] exactly when its
    # tau* lies there, and its last slot then closes at tau*.
    slots: dict[int, list[int]] = {}
    for s, t in match_slots(led, left, right):
        assert left <= s < t <= right
        slots.setdefault(s, []).append(t)
    for s in charged:
        w = int(dense.wmu[dense.idx(s)])
        t = tau.get(s)
        if t is not None and t <= right:
            assert len(slots[s]) == w and max(slots[s]) == t
        else:
            assert len(slots.get(s, [])) < w

    for s in list(tau)[:5]:
        exc = excursion_from(dense, s)
        for g in default_gauges():
            assert cost_of_tau_star(dense, exc, g) == pytest.approx(
                cost_of_tau_star_rescan(dense, exc, g), abs=1e-10)


@given(st.lists(st.tuples(st.integers(-5, 5), st.integers(0, 4), st.integers(0, 4),
                          st.booleans()), max_size=60))
@settings(max_examples=200, deadline=None)
def test_kernel_equals_the_plain_loop(events):
    # Random keys, repeated or not; opens of several slots; closes of
    # several slots, also on an empty or a short stack; and events with both.
    keys = [k for k, _, _, _ in events]
    opens = [o for _, o, _, _ in events]
    closes = [c if both or not o else 0 for _, o, c, both in events]
    assert parenthesis_match(keys, opens, closes) == \
        loop_parenthesis_match(keys, opens, closes)
