"""Protocol fixed points: agreement, common knowledge, pooling."""

from fractions import Fraction

import pytest

from agreelab.dynamics import (
    NETWORK_BELIEF,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    fixed_point_partitions,
    run_protocol,
)
from agreelab.errors import ConnectivityError
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    belief_function,
    optimal_action_set,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
)
from agreelab.scenarios import iid_binary, parity, senate
from agreelab.signals import SignalModel

BINARY_23 = SignalModel.binary(Fraction(2, 3))


def ternary_model() -> SignalModel:
    return SignalModel(
        ("a", "b", "c"),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
    )


class TestPublicBelief:
    def test_parity_needs_no_communication(self):
        scenario = parity(3)
        space = scenario.outcome_space()
        result = run_protocol(
            PUBLIC_BELIEF, space, scenario.initial_partitions(space), (1, 0, 1)
        )
        assert result.trace.rounds_to_fixed_point == 0
        assert result.common_belief == Fraction(1, 2)
        assert result.beliefs_common_knowledge

    def test_two_agents_converge_to_pooled_in_one_round(self):
        space = outcome_space_iid(BINARY_23, 2)
        result = run_protocol(
            PUBLIC_BELIEF, space, own_signal_partitions(space), (1, 1)
        )
        assert result.trace.rounds_to_fixed_point == 1
        assert result.common_belief == Fraction(4, 5)
        assert result.common_belief == pooled_posterior(space, (1, 1))

    @pytest.mark.parametrize("model,n", [(BINARY_23, 2), (BINARY_23, 3), (ternary_model(), 2)])
    def test_agreement_pools_signals_on_every_profile(self, model, n):
        """At the common-knowledge fixed point the common belief equals the
        all-signals posterior, profile by profile, with exact rationals."""
        space = outcome_space_iid(model, n)
        final, _ = fixed_point_partitions(
            PUBLIC_BELIEF, space, own_signal_partitions(space)
        )
        fns = [belief_function(space, p) for p in final]
        for profile in space.profiles:
            values = {fn(profile) for fn in fns}
            assert values == {pooled_posterior(space, profile)}

    def test_exact_agreement_at_fixed_point(self):
        space = outcome_space_iid(ternary_model(), 3)
        result = run_protocol(
            PUBLIC_BELIEF, space, own_signal_partitions(space), space.profiles[0]
        )
        assert len(set(result.beliefs)) == 1
        assert result.beliefs_common_knowledge


class TestPublicAction:
    def test_actions_agree_at_fixed_point(self):
        space = outcome_space_iid(BINARY_23, 3)
        for profile in space.profiles:
            result = run_protocol(
                PUBLIC_ACTION, space, own_signal_partitions(space), profile
            )
            assert len(set(result.actions)) == 1
            assert result.actions_common_knowledge

    def test_senate_defers_to_committee_everywhere(self):
        """Engine fixed point equals the committee's verdict on non-split
        committees and the residual majority on splits."""
        scenario = senate(5, senate_size=2, accuracy=Fraction(2, 3))
        structure = scenario.structure
        space = scenario.outcome_space()
        final, _ = fixed_point_partitions(
            PUBLIC_ACTION, space, scenario.initial_partitions(space)
        )
        fns = [belief_function(space, p) for p in final]
        verdicts = structure.trial_labels(space)
        for profile, verdict in zip(space.profiles, verdicts.tolist()):
            actions = {optimal_action_set(fn(profile)) for fn in fns}
            assert len(actions) == 1
            engine = actions.pop()
            committee = ACTION_SETS[verdict]
            if committee != ACTION_BOTH:
                assert engine == committee
            else:
                rest = profile[2:]
                tally = sum(rest)
                if 2 * tally > len(rest):
                    assert engine == ACTION_ONE
                elif 2 * tally < len(rest):
                    assert engine == ACTION_ZERO
                else:
                    assert engine == ACTION_BOTH


class TestStatisticProtocol:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mean_belief_reaches_the_public_belief_outcome(self, n):
        space = outcome_space_iid(BINARY_23, n)
        belief_fixed, _ = fixed_point_partitions(
            PUBLIC_BELIEF, space, own_signal_partitions(space)
        )
        stat_fixed, _ = fixed_point_partitions(
            PUBLIC_STATISTIC, space, own_signal_partitions(space)
        )
        belief_fns = [belief_function(space, p) for p in belief_fixed]
        stat_fns = [belief_function(space, p) for p in stat_fixed]
        for profile in space.profiles:
            expected = {fn(profile) for fn in belief_fns}
            got = {fn(profile) for fn in stat_fns}
            assert got == expected


class TestNetworkProtocol:
    def test_ring_reaches_exact_agreement(self):
        space = outcome_space_iid(BINARY_23, 3)
        result = run_protocol(
            NETWORK_BELIEF,
            space,
            own_signal_partitions(space),
            (1, 0, 1),
            network=Digraph.ring(3),
        )
        assert len(set(result.beliefs)) == 1
        # when the pairwise fixed point is fully common knowledge the common
        # belief must pool the signals; both facts are reported, not assumed
        if result.beliefs_common_knowledge:
            assert result.common_belief == pooled_posterior(space, (1, 0, 1))

    def test_trace_records_what_each_agent_announced(self):
        """On a ring each agent announces once per round, after hearing its
        predecessor: in round 0 agent 0 says its private belief 2/3, although
        agent 2's announcement later in the round moves it to the pooled 8/9."""
        space = outcome_space_iid(BINARY_23, 3)
        final, trace = fixed_point_partitions(
            NETWORK_BELIEF, space, own_signal_partitions(space), (1, 1, 1), Digraph.ring(3)
        )
        first = dict(trace.rounds[0].announced)
        assert first == {"0": Fraction(2, 3), "1": Fraction(4, 5), "2": Fraction(8, 9)}
        assert belief_function(space, final[0])((1, 1, 1)) == Fraction(8, 9)

    def test_disconnected_digraph_rejected(self):
        space = outcome_space_iid(BINARY_23, 3)
        lopsided = Digraph(3, ((0, 1), (1, 0)))
        with pytest.raises(ConnectivityError):
            run_protocol(
                NETWORK_BELIEF,
                space,
                own_signal_partitions(space),
                (1, 0, 1),
                network=lopsided,
            )


class TestTraceInvariants:
    def test_termination_bound(self):
        for scenario in (parity(4), iid_binary(3, Fraction(2, 3))):
            space = scenario.outcome_space()
            _, trace = fixed_point_partitions(
                PUBLIC_BELIEF, space, scenario.initial_partitions(space)
            )
            assert trace.rounds_to_fixed_point <= space.n * len(space.profiles)

    def test_block_counts_non_decreasing_and_final_round_flat(self):
        space = outcome_space_iid(ternary_model(), 3)
        _, trace = fixed_point_partitions(
            PUBLIC_BELIEF, space, own_signal_partitions(space)
        )
        counts = [r.block_counts for r in trace.rounds]
        for earlier, later in zip(counts, counts[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
        assert len(counts) >= 2
        assert counts[-1] == counts[-2]

    def test_trace_csv_layout(self):
        space = outcome_space_iid(BINARY_23, 2)
        result = run_protocol(
            PUBLIC_BELIEF, space, own_signal_partitions(space), (1, 1)
        )
        text = result.trace.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "round,agent,announced,blocks"
        # one row per agent per round
        assert len(lines) == 1 + 2 * len(result.trace.rounds)

    def test_realized_announcements_recorded(self):
        space = outcome_space_iid(BINARY_23, 2)
        result = run_protocol(
            PUBLIC_BELIEF, space, own_signal_partitions(space), (1, 1)
        )
        first = dict(result.trace.rounds[0].announced)
        assert first["0"] == Fraction(2, 3)
        assert first["1"] == Fraction(2, 3)
