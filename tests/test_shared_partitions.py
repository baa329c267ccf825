"""The exact engine shares each distinct partition's work across the agents
holding it; the per-agent loop in ``reference.py`` does every agent's work on
its own.  Both must reach the same partitions, traces and outcome tables."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import per_agent_fixed_point, per_agent_outcome_table, protocol_outcome_table
from test_engine import rational_models

from agreelab.dynamics import (
    NETWORK_BELIEF,
    PROTOCOL_KINDS,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    fixed_point_partitions,
    shared,
)
from agreelab.knowledge import own_signal_partitions
from agreelab.scenarios import geometric_tail, iid_binary, iid_custom, parity, senate


def assert_shared_equals_per_agent(scenario, kind):
    space = scenario.outcome_space()
    initial = scenario.initial_partitions(space)
    for realized in (space.profiles[0], space.profiles[-1]):
        final, trace = fixed_point_partitions(kind, space, initial, realized)
        want_final, want_trace = per_agent_fixed_point(kind, space, initial, realized)
        assert [p.labels.tolist() for p in final] == [p.labels.tolist() for p in want_final]
        assert [p.block_count for p in final] == [p.block_count for p in want_final]
        assert trace.to_csv() == want_trace.to_csv()
        assert trace.rounds == want_trace.rounds
    codes, xs = protocol_outcome_table(scenario, kind, space)
    want_codes, want_xs = per_agent_outcome_table(scenario, kind, space)
    assert codes.tolist() == want_codes
    assert xs.tolist() == want_xs


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize(
    "scenario",
    # Senate members start from one shared committee partition.
    [senate(12, senate_size=9), geometric_tail(2), parity(3)],
    ids=lambda s: s.name,
)
def test_shared_engine_equals_the_per_agent_loop(scenario, kind):
    assert_shared_equals_per_agent(scenario, kind)


@pytest.mark.parametrize("kind", [PUBLIC_STATISTIC, NETWORK_BELIEF])
def test_agents_keep_their_own_signal_when_public_does_not_refine_it(kind):
    # The mean belief reveals only how many signals are high, and the network
    # protocol has no public partition: every agent keeps its own partition.
    assert_shared_equals_per_agent(iid_binary(8, Fraction(2, 3)), kind)


@settings(max_examples=25, deadline=None)
@given(model=rational_models(), n=st.integers(1, 5))
def test_random_models_equal_the_per_agent_loop(model, n):
    scenario = iid_custom(n, model)
    for kind in PROTOCOL_KINDS:
        assert_shared_equals_per_agent(scenario, kind)


def test_public_belief_fixed_point_is_one_shared_partition():
    space = iid_binary(8, Fraction(2, 3)).outcome_space()
    final, _ = fixed_point_partitions(PUBLIC_BELIEF, space, own_signal_partitions(space))
    assert len(final) == 8
    assert all(p is final[0] for p in final)


def test_shared_calls_once_per_distinct_object():
    a, b = np.zeros(2), np.ones(2)
    calls = []

    def fn(x):
        calls.append(x)
        return len(calls)

    assert shared(fn, [a, b, a, a, b]) == [1, 2, 1, 1, 2]
    assert len(calls) == 2 and calls[0] is a and calls[1] is b
