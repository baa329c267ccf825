"""Edge cases across modules: validation, weak committees, odd digraphs."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import partition_of_blocks

from agreelab.bounds import (
    conditional_expectation_interval,
    estimator_moments_enumerated,
)
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    announced_codes,
    fixed_point_partitions,
    run_protocol,
)
from agreelab.errors import NullConditioningError, ScenarioParameterError
from agreelab.harness import run_monte_carlo
from agreelab.knowledge import (
    belief_function,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
    trivial_partition,
    validate_partitions,
)
from agreelab.scenarios import iid_binary, parity, senate, two_bit, uncorrelated_tight
from agreelab.signals import SignalModel, noise_to_signal_ratio, truncated_model

BINARY_23 = SignalModel.binary(Fraction(2, 3))


class TestPartitionValidation:
    def test_wrong_count_rejected(self):
        space = outcome_space_iid(BINARY_23, 2)
        with pytest.raises(ValueError):
            validate_partitions(space, own_signal_partitions(space)[:1])

    def test_non_covering_rejected(self):
        space = outcome_space_iid(BINARY_23, 2)
        partial = partition_of_blocks([frozenset({(0, 0), (0, 1)})])
        with pytest.raises(ValueError):
            validate_partitions(space, [partial, partial])

    def test_coarser_than_own_signal_rejected(self):
        space = outcome_space_iid(BINARY_23, 2)
        blind = trivial_partition(space)
        good = own_signal_partitions(space)
        with pytest.raises(ValueError):
            validate_partitions(space, [blind, good[1]])

    def test_protocols_validate_their_inputs(self):
        space = outcome_space_iid(BINARY_23, 2)
        blind = trivial_partition(space)
        with pytest.raises(ValueError):
            fixed_point_partitions(PUBLIC_ACTION, space, [blind, blind])


class TestNullConditioning:
    def test_chebyshev_interval_on_null_event(self):
        with pytest.raises(NullConditioningError):
            conditional_expectation_interval(0.0, 1.0, 0.0)


class TestNetworkVariants:
    @pytest.mark.parametrize(
        "edges",
        [
            tuple((u, w) for u in range(3) for w in range(3) if u != w),  # complete
            ((0, 1), (1, 2), (2, 3), (3, 0)),  # 4-cycle
            ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)),  # bidirectional chain
        ],
    )
    def test_agreement_on_strongly_connected_digraphs(self, edges):
        n = max(max(e) for e in edges) + 1
        space = outcome_space_iid(BINARY_23, n)
        network = Digraph(n, edges)
        assert network.is_strongly_connected()
        final, _ = fixed_point_partitions(
            NETWORK_BELIEF, space, own_signal_partitions(space), network=network
        )
        fns = [belief_function(space, p) for p in final]
        for profile in space.profiles:
            assert len({fn(profile) for fn in fns}) == 1

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_edge_order_does_not_change_the_outcome(self, data):
        """Within a round the edges are heard one after another, each refinement
        visible to the edges after it.  ``Digraph`` sorts its edges, and
        hearing them in any other order reaches the same beliefs."""
        scenario = data.draw(
            st.sampled_from(
                [iid_binary(2, Fraction(2, 3)), iid_binary(3, Fraction(3, 5)), parity(3),
                 uncorrelated_tight(4), two_bit(4), senate(4, senate_size=2)]
            ),
            label="scenario",
        )
        n = scenario.n
        pairs = [(u, w) for u in range(n) for w in range(n) if u != w]
        edges = data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True), label="edges")
        network = Digraph(n, tuple(edges))
        assume(network.is_strongly_connected())
        order = data.draw(st.permutations(network.edges), label="order")
        assert Digraph(n, tuple(order)) == network
        reordered = Digraph(n, network.edges)
        object.__setattr__(reordered, "edges", tuple(order))  # bypass the sort
        space = scenario.outcome_space()

        def beliefs(digraph):
            final, _ = fixed_point_partitions(
                NETWORK_BELIEF, space, scenario.initial_partitions(space), network=digraph
            )
            return [
                [values[c] for c in codes.tolist()]
                for codes, values in (announced_codes(PUBLIC_BELIEF, space, p) for p in final)
            ]

        assert beliefs(reordered) == beliefs(network)

    def test_network_mode_through_the_harness(self):
        summary = run_monte_carlo(
            iid_binary(3, Fraction(2, 3)), NETWORK_BELIEF, 500, seed=2
        )
        assert summary.successes + summary.ties + summary.failures == 500

    def test_statistic_mode_through_the_harness(self):
        """Same seed and same profile sampler: the mean-belief protocol must
        classify every trial exactly like the public-belief protocol."""
        from agreelab.dynamics import PUBLIC_BELIEF

        statistic = run_monte_carlo(
            iid_binary(3, Fraction(2, 3)), PUBLIC_STATISTIC, 500, seed=2
        )
        belief = run_monte_carlo(
            iid_binary(3, Fraction(2, 3)), PUBLIC_BELIEF, 500, seed=2
        )
        assert statistic.successes == belief.successes
        assert statistic.ties == belief.ties
        assert statistic.msbe == pytest.approx(belief.msbe, abs=1e-12)

    def test_statistic_protocol_on_a_ternary_model(self):
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        space = outcome_space_iid(model, 3)
        final, _ = fixed_point_partitions(
            PUBLIC_STATISTIC, space, own_signal_partitions(space)
        )
        fns = [belief_function(space, p) for p in final]
        for profile in space.profiles:
            assert {fn(profile) for fn in fns} == {pooled_posterior(space, profile)}


class TestWeakCommittee:
    """A one-member committee is too weak for outsiders to defer to."""

    def test_deference_fails(self):
        scenario = senate(5, senate_size=1, accuracy=Fraction(2, 3))
        assert not scenario.structure.deference_is_exact()

    def test_analytic_sampler_refuses(self):
        scenario = senate(5, senate_size=1, accuracy=Fraction(2, 3))
        with pytest.raises(ScenarioParameterError):
            scenario.structure.action_trial_sampler(5)

    def test_exact_engine_still_reaches_common_actions(self):
        scenario = senate(4, senate_size=1, accuracy=Fraction(2, 3))
        space = scenario.outcome_space()
        for profile in space.profiles:
            result = run_protocol(
                PUBLIC_ACTION, space, scenario.initial_partitions(space), profile
            )
            assert len(set(result.actions)) == 1
            assert result.actions_common_knowledge


class TestTruncatedModels:
    """Censored models are ordinary models: the identities keep holding."""

    def test_estimator_identity_after_censoring(self):
        from agreelab.scenarios import geometric_tail_model

        cut = truncated_model(geometric_tail_model(5, Fraction(7, 10)), 3.5)
        d = noise_to_signal_ratio(cut)
        for n in (1, 2, 3):
            moments = estimator_moments_enumerated(cut, n)
            assert moments.var_y_minus_s == pytest.approx(d / (4 * n), abs=1e-10)
            assert moments.cov_s_y == pytest.approx(0.25, abs=1e-12)

    def test_censoring_raises_the_noise_ratio(self):
        from agreelab.scenarios import geometric_tail_model

        full = geometric_tail_model(8, Fraction(7, 10))
        cut = truncated_model(full, 4.5)
        # discarding the strongest signals cannot make the model cleaner
        assert noise_to_signal_ratio(cut) > noise_to_signal_ratio(full)
