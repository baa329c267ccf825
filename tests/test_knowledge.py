"""Outcome spaces, partitions, posteriors and the knowledge predicates."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import (
    blocks_of,
    locate,
    partition_of_blocks,
    posterior_belief,
    refine_by_announcement,
)

from agreelab.dynamics import PUBLIC_BELIEF, announced_codes
from agreelab.errors import AgreementLabError, EnumerationBudgetError, NullConditioningError
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    TIE,
    OutcomeSpace,
    Partition,
    action_codes,
    action_function,
    belief_function,
    block_beliefs,
    block_sums,
    dense_codes,
    is_common_knowledge,
    optimal_action_set,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
)
from agreelab.scenarios import (
    geometric_tail,
    iid_binary,
    iid_custom,
    parity,
    two_bit,
    uncorrelated_tight,
)
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
            OutcomeSpace((0,), np.zeros((1, 1), dtype=np.uint8), 4, [1], [3])
        with pytest.raises(ValueError):
            OutcomeSpace((0, 1), np.array([[0], [1]], dtype=np.uint8), 4, [3, -1], [1, 1])


def block_belief(space, partition, profile) -> Fraction:
    """The engine's exact posterior of the block holding ``profile``."""
    codes, values = block_beliefs(space, partition)
    return values[codes[partition.labels[space.position(profile)]]]


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
    """Symbols are indices in the space's alphabet and the rows are in
    lexicographic order, so a batch of rows maps to profile positions by one
    searchsorted (the reference's ``locate``); a profile tuple goes through
    the same lookup (``position``)."""

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
            assert locate(space, space.symbols).tolist() == list(range(len(space.profiles)))
            reversed_rows = space.symbols[::-1]
            assert locate(space, reversed_rows).tolist() == list(range(len(space.profiles)))[::-1]
            assert [space.position(p) for p in space.profiles] == list(range(len(space.profiles)))

    def test_a_row_outside_the_space_is_an_error(self):
        space = uncorrelated_tight(8).outcome_space()
        with pytest.raises(AgreementLabError):
            locate(space, np.ones((1, 8), dtype=np.int64))
        assert space.position((1,) * 8) is None
        assert space.position((0,) * 7 + (2,)) is None


# int64 spaces, Python-int ones (geometric_tail and the huge accuracy), and
# parity, whose own-signal blocks all tie.
MARGIN_SPACES = {
    "iid_binary(3)": lambda: iid_binary(3, Fraction(2, 3)),
    "ternary(3)": lambda: iid_custom(3, ternary_model()),
    "geometric_tail(2)": lambda: geometric_tail(2),
    "iid_binary(3, huge)": lambda: iid_binary(3, Fraction(2**70 + 1, 2**71)),
    "parity(4)": lambda: parity(4),
}


def sign_of_masses(space, partition) -> list:
    """Action codes from the sign of ``ones - zeros`` of the blocks' masses."""
    zeros, ones = block_sums(space, partition, space.w0, space.w1)
    return [1 if o > z else 0 if o < z else TIE for z, o in zip(zeros.tolist(), ones.tolist())]


class TestMargin:
    @pytest.mark.parametrize("name", MARGIN_SPACES)
    def test_margin_is_w1_minus_w0_in_the_space_dtype(self, name):
        space = MARGIN_SPACES[name]().outcome_space()
        assert space.margin.dtype == space.w0.dtype
        assert space.margin.tolist() == [o - z for z, o in zip(space.w0.tolist(), space.w1.tolist())]
        assert (space.w0.dtype == object) == (name in ("geometric_tail(2)", "iid_binary(3, huge)"))

    @given(st.data())
    def test_margin_actions_are_the_sign_of_the_masses(self, data):
        space = MARGIN_SPACES[data.draw(st.sampled_from(sorted(MARGIN_SPACES)))]().outcome_space()
        size = len(space.profiles)
        keys = data.draw(st.lists(st.integers(0, 6), min_size=size, max_size=size))
        partition = Partition(space, dense_codes(np.array(keys))[0])
        (margin,) = block_sums(space, partition, space.margin)
        assert margin.dtype == space.w0.dtype
        assert all(2 * abs(m) <= space.den for m in margin.tolist())
        assert action_codes(margin).tolist() == sign_of_masses(space, partition)
        acts = action_function(space, partition)
        want = [ACTION_SETS[c] for c in sign_of_masses(space, partition)]
        assert [acts(p) for p in space.profiles] == [want[b] for b in partition.labels.tolist()]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parity_blocks_all_tie(self, n):
        space = parity(n).outcome_space()
        for partition in own_signal_partitions(space):
            (margin,) = block_sums(space, partition, space.margin)
            assert margin.tolist() == [0] * partition.block_count
            assert action_codes(margin).tolist() == sign_of_masses(space, partition)
            assert set(action_codes(margin).tolist()) == {TIE}
