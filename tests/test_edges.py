"""Edge cases across modules: validation, weak committees, odd digraphs."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import partition_of_blocks

from agreelab.bounds import (
    conditional_expectation_interval,
    count_law,
    estimator_moments_by_counts,
    estimator_moments_enumerated,
    estimator_y,
    exact_pooled_summary,
    k_statistic,
    learning_bounds,
    likelihood_classes,
    qn_bound,
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
from agreelab.harness import run_monte_carlo, senate_exact_summary
from agreelab.knowledge import (
    belief_function,
    outcome_space_iid,
    own_signal_partitions,
    pooled_posterior,
    trivial_partition,
    validate_partitions,
)
from agreelab.scenarios import iid_binary, parity, senate, two_bit, uncorrelated_tight
from agreelab.signals import (
    SignalModel,
    belief_tail_cdf,
    noise_to_signal_ratio,
    truncate_llr,
    truncated_model,
)

BINARY_23 = SignalModel.binary(Fraction(2, 3))


@pytest.mark.parametrize(
    "call, args",
    [
        (learning_bounds, (10, math.inf)),
        (learning_bounds, (10, math.nan)),
        (truncate_llr, (1.0, math.nan)),
        (conditional_expectation_interval, (0, math.nan, 0.5)),
        (estimator_y, (BINARY_23, [])),
        (Digraph, (-1, ())),
        (Digraph, (0, ())),
        (BINARY_23.weight, (2, 0)),
        (belief_tail_cdf, (BINARY_23, -1)),
        (qn_bound, (2.5, lambda eps: Fraction(1, 2))),
        (qn_bound, (True, lambda eps: Fraction(1, 2))),
        (learning_bounds, (2.5, 1.0)),
        (learning_bounds, (True, 1.0)),
        (estimator_moments_enumerated, (BINARY_23, True)),
        (estimator_moments_by_counts, (BINARY_23, 2.5)),
        (count_law, (BINARY_23, True)),
        (count_law, (BINARY_23, 2.5)),
        (likelihood_classes, (BINARY_23, True)),
        (likelihood_classes, (BINARY_23, 2.5)),
        (exact_pooled_summary, (BINARY_23, True)),
        (exact_pooled_summary, (BINARY_23, 2.5)),
        (conditional_expectation_interval, (math.nan, 1.0, 0.5)),
        (k_statistic, ([0.1, 0.2], math.nan)),
        (estimator_y, (BINARY_23, [math.nan])),
        (k_statistic, ([math.nan, 0.1], 0.5)),
        (conditional_expectation_interval, (0.0, math.inf, 0.5)),
    ],
    ids=["bounds-inf", "bounds-nan", "truncate-nan", "interval-nan", "no-llrs",
         "negative-digraph", "empty-digraph", "weight-state-2", "tail-cdf-state-minus-1",
         "qn-fractional-n", "qn-boolean-n", "bounds-fractional-n", "bounds-boolean-n",
         "moments-boolean-n", "moments-by-counts-fractional-n", "count-law-boolean-n",
         "count-law-fractional-n", "classes-boolean-n", "classes-fractional-n",
         "pooled-summary-boolean-n", "pooled-summary-fractional-n", "interval-nan-mean",
         "k-statistic-nan-eps", "estimator-y-nan-llr", "k-statistic-nan-belief",
         "interval-infinite-variance"],
)
def test_non_finite_or_empty_inputs_are_refused(call, args):
    """Each passed the range checks: NaN fails every comparison, an empty
    input reached a division or a node it does not have, a state other than
    1 read mu0, a boolean agent count counted as 1, and a fractional one gave
    a number or a ``TypeError``.  A NaN mean gave the interval (nan, nan), a
    NaN threshold a fraction of 0, a NaN ratio an estimate of nan, a NaN
    belief a fraction that skipped it (0.5 of two beliefs) and an infinite
    variance the interval (-inf, inf)."""
    with pytest.raises(ValueError):
        call(*args)


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
        """Public-action's outcome of the committee's tally, at any n."""
        for n in (5, 40):
            scenario = senate(n, senate_size=1, accuracy=Fraction(2, 3))
            with pytest.raises(ScenarioParameterError):
                scenario.structure.trial_outcomes(n, PUBLIC_ACTION)

    def test_exact_summary_refuses(self):
        scenario = senate(5, senate_size=1, accuracy=Fraction(2, 3))
        with pytest.raises(ScenarioParameterError, match="would not defer"):
            senate_exact_summary(scenario)

    def test_monte_carlo_refuses_in_budget_too(self):
        """Trials report the committee's verdict in budget as past it, so
        both refuse the same committees."""
        scenario = senate(5, senate_size=1, accuracy=Fraction(2, 3))
        with pytest.raises(ScenarioParameterError):
            run_monte_carlo(scenario, PUBLIC_ACTION, 200, seed=3)

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
