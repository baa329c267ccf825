"""Outcome spaces, partitions, posteriors and the knowledge predicates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import blocks_of, partition_of_blocks, posterior_belief, refine_by_announcement

from agreelab.dynamics import PUBLIC_BELIEF, announced_codes
from agreelab.errors import AgreementLabError, EnumerationBudgetError, NullConditioningError
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_ZERO,
    OutcomeSpace,
    belief_function,
    block_beliefs,
    is_common_knowledge,
    optimal_action_set,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
    profile_indexer,
)
from agreelab.scenarios import iid_binary, iid_custom, parity, two_bit, uncorrelated_tight
from agreelab.signals import SignalModel, belief_from_llr, log_likelihood_ratio

BINARY_23 = SignalModel.binary(Fraction(2, 3))


def ternary_model() -> SignalModel:
    return SignalModel(
        ("a", "b", "c"),
        (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
        (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
    )


class TestOutcomeSpaces:
    def test_iid_binary_two_agents(self):
        space = outcome_space_iid(BINARY_23, 2)
        assert len(space) == 8
        assert space.weights[(1, (1, 1))] == Fraction(1, 2) * Fraction(4, 9)

    def test_single_agent(self):
        space = outcome_space_iid(BINARY_23, 1)
        assert space.weights[(0, (0,))] == Fraction(1, 2) * Fraction(2, 3)
        assert space.weights[(1, (0,))] == Fraction(1, 2) * Fraction(1, 3)

    def test_parity_two_agents(self):
        space = parity(2).outcome_space()
        assert len(space) == 4
        for (state, profile), w in space.weights.items():
            assert w == Fraction(1, 4)
            assert state == (profile[0] + profile[1]) % 2

    def test_budget_refusal(self):
        with pytest.raises(EnumerationBudgetError):
            outcome_space_iid(BINARY_23, 25)

    def test_budget_refusal_via_scenario(self):
        with pytest.raises(EnumerationBudgetError):
            iid_binary(25, Fraction(2, 3)).outcome_space()

    def test_budget_counts_the_support(self):
        """A zero-weight symbol adds no profiles: 2 * 2**14 pairs, not 2 * 3**14."""
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(2, 3), Fraction(0), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
        )
        space = outcome_space_iid(model, 14)
        assert len(space.profiles) == 2**14
        assert space.profiles == iid_custom(14, model).outcome_space().profiles

    def test_state_marginals_enforced(self):
        with pytest.raises(ValueError):
            OutcomeSpace(1, {(1, (0,)): Fraction(3, 4), (0, (0,)): Fraction(1, 4)})


def block_belief(space, partition, profile) -> Fraction:
    """The engine's exact posterior of the block holding ``profile``."""
    codes, values = block_beliefs(space, partition)
    return values[codes[partition.labels[space.profiles.index[profile]]]]


class TestPosteriorBelief:
    def test_own_signal_block(self):
        space = outcome_space_iid(BINARY_23, 2)
        assert block_belief(space, own_signal_partitions(space)[0], (1, 0)) == Fraction(2, 3)

    def test_parity_own_signal_block_is_half(self):
        space = parity(3).outcome_space()
        partitions = own_signal_partitions(space)
        for u in range(3):
            for bit in (0, 1):
                profile = next(p for p in space.profiles if p[u] == bit)
                assert block_belief(space, partitions[u], profile) == Fraction(1, 2)

    def test_singleton_block(self):
        space = outcome_space_iid(BINARY_23, 2)
        assert posterior_belief(space, [(1, 1)]) == Fraction(4, 5)

    def test_null_block_rejected(self):
        space = outcome_space_iid(BINARY_23, 2)
        with pytest.raises(NullConditioningError):
            posterior_belief(space, [])


class TestPooledPosterior:
    def test_cancelling_signals(self):
        space = outcome_space_iid(BINARY_23, 2)
        assert pooled_posterior(space, (1, 0)) == Fraction(1, 2)

    def test_two_high_signals(self):
        space = outcome_space_iid(BINARY_23, 2)
        assert pooled_posterior(space, (1, 1)) == Fraction(4, 5)

    def test_parity_is_deterministic(self):
        space = parity(3).outcome_space()
        assert pooled_posterior(space, (1, 0, 1)) == 0
        assert pooled_posterior(space, (1, 0, 0)) == 1

    def test_null_profile_rejected(self):
        space = parity(2).outcome_space()
        with pytest.raises(NullConditioningError):
            pooled_posterior(space, (2, 2))

    def test_matches_llr_sum_for_iid(self):
        """Rational pooled posterior equals the logistic of summed ratios."""
        for model, n in ((BINARY_23, 3), (ternary_model(), 3)):
            space = outcome_space_iid(model, n)
            for profile in space.profiles:
                z = sum(log_likelihood_ratio(model, s) for s in profile)
                assert float(pooled_posterior(space, profile)) == pytest.approx(
                    belief_from_llr(z), abs=1e-12
                )


class TestOptimalActionSet:
    def test_low_belief(self):
        assert optimal_action_set(0.3) == ACTION_ZERO

    def test_exact_half(self):
        assert optimal_action_set(Fraction(1, 2)) == ACTION_BOTH

    def test_high_belief(self):
        assert optimal_action_set(0.9) == ACTION_ONE

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=40))
    def test_tie_iff_numerator_is_half_denominator(self, num, den):
        belief = Fraction(min(num, den), den)
        action = optimal_action_set(belief)
        if 2 * belief.numerator == belief.denominator:
            assert action == ACTION_BOTH
        else:
            assert action in (ACTION_ZERO, ACTION_ONE)


class TestTowerProperty:
    def test_refinement_averages_back_exactly(self):
        """Weighted average of posteriors over sub-blocks equals the block's."""
        space = outcome_space_iid(ternary_model(), 3)
        coarse = own_signal_partitions(space)[0]
        fine = coarse.refine_by_key(lambda profile: profile[1])
        def weight(block):
            return sum((space.weights.get((s, p), 0) for s in (0, 1) for p in block), Fraction(0))

        for block in blocks_of(coarse):
            num = Fraction(0)
            den = Fraction(0)
            for sub in blocks_of(fine):
                if sub <= block:
                    w = weight(sub)
                    num += w * posterior_belief(space, sub)
                    den += w
            assert den == weight(block)
            assert num / den == posterior_belief(space, block)


class TestRefinement:
    def test_constant_announcement_changes_nothing(self):
        space = outcome_space_iid(BINARY_23, 2)
        partitions = own_signal_partitions(space)
        refined = refine_by_announcement(
            space, partitions, {0: lambda profile: "hello"}
        )
        assert refined == partitions

    def test_belief_announcement_reveals_signals(self):
        space = outcome_space_iid(BINARY_23, 2)
        partitions = own_signal_partitions(space)
        fns = {u: belief_function(space, partitions[u]) for u in range(2)}
        refined = refine_by_announcement(space, partitions, fns)
        # belief 2/3 vs 1/3 reveals the announcing agent's bit exactly
        assert all(p.block_count == 4 for p in refined)
        assert all(len(b) == 1 for p in refined for b in blocks_of(p))

    def test_parity_beliefs_announce_nothing(self):
        space = parity(3).outcome_space()
        partitions = own_signal_partitions(space)
        fns = {u: belief_function(space, partitions[u]) for u in range(3)}
        refined = refine_by_announcement(space, partitions, fns)
        assert refined == partitions

    def test_refinement_never_coarsens(self):
        space = outcome_space_iid(ternary_model(), 2)
        partitions = own_signal_partitions(space)
        fns = {0: belief_function(space, partitions[0])}
        refined = refine_by_announcement(space, partitions, fns)
        for old, new in zip(partitions, refined):
            assert new.refine(old.labels) is new

    def test_private_audience(self):
        space = outcome_space_iid(BINARY_23, 3)
        partitions = own_signal_partitions(space)
        fns = {0: belief_function(space, partitions[0])}
        refined = refine_by_announcement(space, partitions, fns, audience={1})
        assert refined[1].block_count == 4
        assert refined[2] == partitions[2]


def belief_codes(space, partitions) -> list:
    """Each agent's posterior as per-profile codes."""
    return [announced_codes(PUBLIC_BELIEF, space, p)[0] for p in partitions]


class TestCommonKnowledge:
    def test_single_agent_always_true(self):
        space = outcome_space_iid(BINARY_23, 1)
        partitions = own_signal_partitions(space)
        assert is_common_knowledge(partitions, belief_codes(space, partitions))

    def test_parity_beliefs_are_common_knowledge(self):
        space = parity(3).outcome_space()
        partitions = own_signal_partitions(space)
        assert is_common_knowledge(partitions, belief_codes(space, partitions))

    def test_iid_initial_beliefs_are_not(self):
        space = outcome_space_iid(BINARY_23, 2)
        partitions = own_signal_partitions(space)
        assert not is_common_knowledge(partitions, belief_codes(space, partitions))

    def test_identical_partitions_always_true(self):
        space = outcome_space_iid(ternary_model(), 2)
        shared = own_signal_partitions(space)[0]
        partitions = [shared, shared]
        assert is_common_knowledge(partitions, belief_codes(space, partitions))


class TestPrivateBeliefLaw:
    """Grouping outcomes by private belief value must reproduce that value."""

    @pytest.mark.parametrize("model", [BINARY_23, ternary_model()])
    def test_state_probability_given_belief_equals_belief(self, model):
        from agreelab.signals import private_belief

        groups = {}
        for symbol in model.support:
            groups.setdefault(private_belief(model, symbol), []).append(symbol)
        for belief, symbols in groups.items():
            ones = sum(model.weight(1, s) for s in symbols) * Fraction(1, 2)
            total = ones + sum(model.weight(0, s) for s in symbols) * Fraction(1, 2)
            assert ones / total == belief

    def test_low_belief_event_points_to_state_zero(self):
        from agreelab.scenarios import geometric_tail_model
        from agreelab.signals import private_belief

        model = geometric_tail_model(8, Fraction(7, 10))
        for eps in (Fraction(1, 100), Fraction(1, 10), Fraction(1, 3)):
            symbols = [s for s in model.support if private_belief(model, s) < eps]
            if not symbols:
                continue
            zeros = sum(model.weight(0, s) for s in symbols)
            total = zeros + sum(model.weight(1, s) for s in symbols)
            assert zeros / total > 1 - eps


class TestPartitionMechanics:
    def test_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError):
            partition_of_blocks([{(0,), (1,)}, {(1,)}])

    def test_refines_detects_non_refinement(self):
        """A partition refines another iff the other's labels split none of
        its blocks."""
        coarse = partition_of_blocks([{(0,), (1,)}])
        fine = partition_of_blocks([{(0,)}, {(1,)}])
        assert fine.refine(coarse.labels) is fine
        assert coarse.refine(fine.labels) is not coarse


class TestProfileIndexer:
    """Symbols are per-agent ranks, so rows sort like the profiles and a
    batch of rows maps to profile positions by one searchsorted."""

    def test_symbols_are_ranks_of_each_agents_symbols(self):
        space = uncorrelated_tight(8).outcome_space()
        assert np.array_equal(space.symbols, np.array(space.profiles))
        space = two_bit(4).outcome_space()
        ranks = np.array([[2 * b1 + b2 for b1, b2 in p] for p in space.profiles])
        assert np.array_equal(space.symbols, ranks)

    def test_rows_map_to_their_positions(self):
        ternary = SignalModel(
            ("c", "a", "b"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        spaces = (
            uncorrelated_tight(8).outcome_space(),
            two_bit(4).outcome_space(),
            parity(4).outcome_space(),
            outcome_space_iid(ternary, 3),
        )
        for space in spaces:
            index = profile_indexer(space)
            assert index(space.symbols).tolist() == list(range(len(space.profiles)))
            reversed_rows = space.symbols[::-1]
            assert index(reversed_rows).tolist() == list(range(len(space.profiles)))[::-1]

    def test_a_row_outside_the_space_is_an_error(self):
        space = uncorrelated_tight(8).outcome_space()
        with pytest.raises(AgreementLabError):
            profile_indexer(space)(np.ones((1, 8), dtype=np.int64))
