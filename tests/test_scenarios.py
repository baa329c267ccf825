"""Scenario constructors: the benchmark families and their structure."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    profile_statistics,
    reference_geometric_tail,
    reference_iid_counts,
    refine_by_announcement,
    structure_weights,
)
from test_engine import UNSORTED_MODEL

from agreelab import dynamics
from agreelab.bounds import count_posterior, likelihood_classes, pooled_action_law
from agreelab.dynamics import PUBLIC_ACTION, PUBLIC_BELIEF, decide_counts
from agreelab.errors import ScenarioParameterError
from agreelab.harness import senate_exact_summary
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    TIE,
    action_code,
    block_beliefs,
    optimal_action_set,
    own_signal_partitions,
    pooled_posterior,
)
from agreelab.scenarios import (
    MAX_TAIL_DEPTH,
    IidSignals,
    build_scenario,
    flip_accuracy,
    geometric_tail,
    geometric_tail_model,
    iid_binary,
    iid_custom,
    parity,
    senate,
    two_bit,
    uncorrelated_tight,
)
from agreelab.signals import (
    SignalModel,
    as_weight,
    belief_range,
    log_likelihood_ratio,
    private_belief,
)


class TestParity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_private_beliefs_are_half_everywhere(self, n):
        scenario = parity(n)
        space = scenario.outcome_space()
        for partition in own_signal_partitions(space):
            codes, values = block_beliefs(space, partition)
            assert partition.block_count == 2
            assert [values[c] for c in codes.tolist()] == [Fraction(1, 2)] * 2

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_pooled_posterior_is_degenerate(self, n):
        space = parity(n).outcome_space()
        assert all(pooled_posterior(space, p) in (0, 1) for p in space.profiles)

    def test_minimum_size(self):
        with pytest.raises(ScenarioParameterError):
            parity(1)


class TestFlipAccuracy:
    def test_degenerate_at_four(self):
        assert flip_accuracy(4) == Fraction(1, 2)

    def test_value_at_eight(self):
        # 1/2 + 1/2 sqrt(4/7)
        assert float(flip_accuracy(8)) == pytest.approx(0.8779644730092272, abs=1e-15)

    def test_imaginary_below_four(self):
        with pytest.raises(ScenarioParameterError):
            flip_accuracy(3)

    def test_error_shrinks_like_three_quarters_over_n(self):
        for n in (64, 256, 1024):
            err = float(1 - flip_accuracy(n))
            assert err * (n - 1) == pytest.approx(0.75, abs=0.05)


class TestUncorrelatedTight:
    def test_divisibility_enforced(self):
        with pytest.raises(ScenarioParameterError):
            uncorrelated_tight(6)
        with pytest.raises(ScenarioParameterError):
            uncorrelated_tight(3)

    def test_pairwise_independence_exact_at_four(self):
        scenario = uncorrelated_tight(4)
        space = scenario.outcome_space()
        for state in (0, 1):
            total = Fraction(0)
            both = Fraction(0)
            one = Fraction(0)
            for profile in space.profiles:
                w = space.weights.get((state, profile), Fraction(0))
                total += w
                both += w if (profile[0] == 1 and profile[1] == 1) else 0
                one += w if profile[0] == 1 else 0
            assert both / total == (one / total) ** 2

    @pytest.mark.parametrize("n", [8, 12])
    def test_pairwise_independence_floating(self, n):
        scenario = uncorrelated_tight(n)
        space = scenario.outcome_space()
        for state in (0, 1):
            total = both = one = Fraction(0)
            for profile in space.profiles:
                w = space.weights.get((state, profile), Fraction(0))
                total += w
                both += w if (profile[0] == 1 and profile[1] == 1) else 0
                one += w if profile[0] == 1 else 0
            assert abs(float(both / total - (one / total) ** 2)) < 1e-12

    def test_construction_covariance_check_runs(self):
        assert uncorrelated_tight(8).structure.verify_uncorrelated(8) < 1e-12

    def test_pooled_depends_only_on_decoded_proxy(self):
        scenario = uncorrelated_tight(8)
        space = scenario.outcome_space()
        by_class = {}
        for profile in space.profiles:
            by_class.setdefault(sum(profile), set()).add(pooled_posterior(space, profile))
        assert set(by_class) == {2, 6}
        assert all(len(values) == 1 for values in by_class.values())
        q = scenario.metadata["q"]
        assert by_class[6] == {q}
        assert by_class[2] == {1 - q}

    def test_wrong_decode_mass_is_one_minus_q(self):
        scenario = uncorrelated_tight(8)
        space = scenario.outcome_space()
        q = scenario.metadata["q"]
        wrong = Fraction(0)
        for (state, profile), w in space.weights.items():
            decoded = 1 if sum(profile) == 6 else 0
            if decoded != state:
                wrong += w
        assert wrong == 1 - q

    def test_profile_sampler_hits_the_two_classes(self):
        """The profile sampler hands the outcome each trial's proxy bit, the
        class of one-count 6 or 2 its profile lies in, and draws both."""
        scenario = uncorrelated_tight(8)
        draw = scenario.profile_sampler(lambda proxies: (proxies,))
        states, proxies = draw(np.random.default_rng(0), 50)
        classes = {scenario.structure.ones_count(8, bit) for bit in proxies.tolist()}
        assert classes == {2, 6}
        assert np.count_nonzero(proxies == states) > 25


class TestTwoBit:
    def test_divisibility_enforced(self):
        with pytest.raises(ScenarioParameterError):
            two_bit(6)

    def test_pooled_is_deterministic(self):
        space = two_bit(4).outcome_space()
        assert all(pooled_posterior(space, p) in (0, 1) for p in space.profiles)

    def test_revealing_second_bits_matches_flip_family_exactly(self):
        """One public round of second-bit announcements aggregates exactly as
        much as the flip family's full revelation, despite the parity bits
        holding enough information for certainty."""
        scenario = two_bit(8)
        space = scenario.outcome_space()
        partitions = scenario.initial_partitions(space)
        announce = {u: (lambda profile, u=u: profile[u][1]) for u in range(8)}
        refined = refine_by_announcement(space, partitions, announce)
        per_agent = []
        for p in refined:
            codes, values = block_beliefs(space, p)
            per_agent.append([values[c] for c in codes[p.labels].tolist()])
        success = Fraction(0)
        for profile, beliefs in zip(space.profiles, zip(*per_agent)):
            actions = {optimal_action_set(belief) for belief in beliefs}
            assert len(actions) == 1
            action = actions.pop()
            for state in (0, 1):
                w = space.weights.get((state, profile), Fraction(0))
                if action == (ACTION_ONE if state == 1 else ACTION_ZERO):
                    success += w
        assert success == scenario.metadata["q"]


class TestSpaceBuilders:
    """Each structure's integer space against its weights defined pair by
    pair in ``reference.structure_weights``."""

    @pytest.mark.parametrize(
        "scenario, mass_dtype",
        [(parity(n), np.int64) for n in range(2, 13)]
        + [(uncorrelated_tight(n), np.int64) for n in (4, 8, 12, 16)]
        + [(uncorrelated_tight(20), object), (two_bit(4), np.int64), (two_bit(8), object)],
        ids=lambda value: getattr(value, "name", None),
    )
    def test_space_matches_the_definition(self, scenario, mass_dtype):
        space = scenario.outcome_space()
        reference = structure_weights(scenario)
        assert space.weights == reference
        assert space.den == math.lcm(*(w.denominator for w in reference.values()))
        assert space.w0.dtype == mass_dtype and space.w1.dtype == mass_dtype
        assert space.profiles == tuple(sorted({profile for _, profile in reference}))
        for u in range(scenario.n):
            ranks = {s: r for r, s in enumerate(sorted({p[u] for p in space.profiles}))}
            assert space.symbols[:, u].tolist() == [ranks[p[u]] for p in space.profiles]


    @pytest.mark.parametrize(
        "scenario",
        [
            geometric_tail(3),
            iid_custom(
                4,
                SignalModel(
                    ("c", "a", "b"),
                    (Fraction(1, 3), Fraction(0), Fraction(2, 3)),
                    (Fraction(2, 3), Fraction(0), Fraction(1, 3)),
                ),
            ),
            senate(12, senate_size=9),
        ],
        ids=lambda scenario: scenario.name,
    )
    def test_iid_space_is_the_product_of_the_sorted_support(self, scenario):
        """The product in support order: negative symbols, an unsorted
        string alphabet whose zero-weight symbol is left out, and the
        senate's binary signals."""
        model, n = scenario.marginal_model, scenario.n
        support = list(model.support)
        space = scenario.outcome_space()
        assert space.alphabet == tuple(support)
        assert space.profiles == tuple(itertools.product(support, repeat=n))
        assert space.symbols.tolist() == [[support.index(s) for s in p] for p in space.profiles]
        assert [space.profile(i) for i in (0, len(space.symbols) - 1)] == [
            space.profiles[0],
            space.profiles[-1],
        ]

    def test_an_unsorted_support_is_laid_out_in_its_own_order(self):
        """Rows are the lexicographic product of support indices, however
        the alphabet is ordered, and each profile is found at its own row."""
        model = SignalModel.from_config(UNSORTED_MODEL)
        space = iid_custom(6, model).outcome_space()
        k = len(model.support)
        assert space.alphabet == model.support == ("c", "a", "d", "b")
        assert space.symbols.tolist() == [list(p) for p in itertools.product(range(k), repeat=6)]
        assert [space.position(p) for p in space.profiles] == list(range(k**6))


class TestSenate:
    def test_population_must_exceed_committee(self):
        with pytest.raises(ScenarioParameterError):
            senate(100)
        with pytest.raises(ScenarioParameterError):
            senate(5, senate_size=5)

    def test_initial_information(self):
        scenario = senate(5, senate_size=2, accuracy=Fraction(2, 3))
        space = scenario.outcome_space()
        partitions = scenario.initial_partitions(space)
        # committee members know both committee bits: 4 blocks
        assert partitions[0].block_count == 4
        assert partitions[1].block_count == 4
        # outsiders know their own bit and the committee verdict: 2 x 3 blocks
        assert all(p.block_count == 6 for p in partitions[2:])

    def test_exact_error_is_n_independent(self):
        failures = {n: senate_exact_summary(senate(n)).failure for n in (200, 400, 800)}
        assert len(set(failures.values())) == 1

    def test_exact_error_matches_direct_binomial_tail(self):
        """Oracle: direct summation of the 100-draw binomial below 50."""
        acc = Fraction(2, 3)
        tail = sum(
            math.comb(100, k) * acc**k * (1 - acc) ** (100 - k) for k in range(50)
        )
        assert senate_exact_summary(senate(200)).failure == tail

    def test_tie_probability(self):
        acc = Fraction(2, 3)
        expected = math.comb(100, 50) * acc**50 * (1 - acc) ** 50
        assert senate_exact_summary(senate(200)).tie == expected

    def test_deference_holds_for_the_default_committee(self):
        assert senate(200).structure.deference_is_exact()

    def test_analytic_trials_match_engine_labels(self):
        """The in-budget table of every profile and the draws past the
        budget report, per committee tally, its verdict and its pooled
        belief as X."""
        scenario = senate(6, senate_size=2, accuracy=Fraction(2, 3))
        structure = scenario.structure
        exact = {
            (action_code(b), float(b))
            for b in (count_posterior(structure.model, (2 - ones, ones)) for ones in range(3))
        }
        statistics = profile_statistics(scenario, scenario.outcome_space())
        table = structure.trial_outcomes(6, PUBLIC_ACTION)(statistics)
        assert set(zip(*(a.tolist() for a in table))) == exact
        large = senate(40, senate_size=2, accuracy=Fraction(2, 3))
        draw = large.profile_sampler(large.structure.trial_outcomes(40, PUBLIC_ACTION))
        _states, verdicts, xs = draw(np.random.default_rng(1), 200)
        assert set(zip(verdicts.tolist(), xs.tolist())) == exact

    @pytest.mark.parametrize("accuracy", [Fraction(2, 3), Fraction(3, 5)])
    def test_committee_law_is_the_likelihood_classes_law(self, accuracy):
        """Counting each row of the count law as its own class gives the
        law of the reduced likelihood classes, at every committee size."""
        for m in range(1, 302):
            structure = senate(m + 1, senate_size=m, accuracy=accuracy).structure
            denominator, classes, _firsts = likelihood_classes(structure.model, m)
            assert structure.action_law() == pooled_action_law(denominator, classes.items())

    def test_tally_posterior_is_exact(self):
        structure = senate(200).structure
        verdicts, beliefs = structure.pooled_table(structure.senate_size)
        for ones, posterior in ((50, Fraction(1, 2)), (51, Fraction(4, 5)), (49, Fraction(1, 5))):
            assert count_posterior(structure.model, (100 - ones, ones)) == posterior  # odds 2^(2k)
            assert beliefs[ones] == float(posterior)
            assert ACTION_SETS[verdicts[ones]] == optimal_action_set(posterior)


class TestGeometricTail:
    def test_llr_support_is_the_integer_ladder(self):
        model = geometric_tail_model(6, Fraction(7, 10))
        for k in model.alphabet:
            assert log_likelihood_ratio(model, k) == pytest.approx(k, abs=1e-12)

    def test_mirror_symmetry_exact(self):
        model = geometric_tail_model(5, Fraction(1, 2))
        for k in model.alphabet:
            assert model.weight(0, k) == model.weight(1, -k)

    def test_beliefs_approach_the_endpoints_monotonically(self):
        lows, highs = [], []
        for depth in range(1, 9):
            low, high = belief_range(geometric_tail_model(depth, Fraction(7, 10)))
            lows.append(low)
            highs.append(high)
        assert all(b < a for a, b in zip(lows, lows[1:]))
        assert all(b > a for a, b in zip(highs, highs[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ScenarioParameterError):
            geometric_tail_model(0, Fraction(1, 2))
        with pytest.raises(ScenarioParameterError):
            geometric_tail_model(3, Fraction(3, 2))

    def test_depth_whose_weight_overflows_is_refused(self):
        """e^(K/2) is a float up to K = 1419; one deeper is refused."""
        assert MAX_TAIL_DEPTH == 1419
        math.exp(MAX_TAIL_DEPTH / 2)
        with pytest.raises(OverflowError):
            math.exp((MAX_TAIL_DEPTH + 1) / 2)
        with pytest.raises(ScenarioParameterError, match="at most 1419"):
            geometric_tail_model(MAX_TAIL_DEPTH + 1, Fraction(7, 10))

    @settings(max_examples=100, deadline=None)
    @given(
        depth=st.integers(1, 24),
        ratio=st.one_of(
            st.fractions(0, 1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
            st.floats(1e-9, 1, exclude_max=True),
        ),
    )
    def test_weights_over_one_denominator_are_the_fraction_weights(self, depth, ratio):
        model = geometric_tail_model(depth, ratio)
        expected = reference_geometric_tail(depth, as_weight(ratio))
        assert (model.alphabet, model.mu0, model.mu1) == expected

    @pytest.mark.parametrize("ratio", [Fraction(7, 10), 0.123])
    def test_deep_weights_are_the_fraction_weights(self, ratio):
        model = geometric_tail_model(200, ratio)
        expected = reference_geometric_tail(200, as_weight(ratio))
        assert (model.alphabet, model.mu0, model.mu1) == expected

    def test_scenario_carries_the_model(self):
        scenario = geometric_tail(10, depth=4, ratio=Fraction(7, 10))
        assert scenario.marginal_model is not None
        assert len(scenario.marginal_model.alphabet) == 8


class TestIidBinary:
    def test_accuracy_range_enforced(self):
        with pytest.raises(ScenarioParameterError):
            iid_binary(3, Fraction(2, 5))
        with pytest.raises(ScenarioParameterError):
            iid_binary(3, 1)

    def test_marginal_model(self):
        scenario = iid_binary(3, Fraction(2, 3))
        assert scenario.marginal_model.weight(1, 1) == Fraction(2, 3)


@st.composite
def positive_models(draw):
    """Models of 2 to 16 symbols, every weight positive in both states."""
    k = draw(st.integers(2, 16))
    weights = st.lists(st.integers(1, 10**6), min_size=k, max_size=k)
    w0, w1 = draw(weights), draw(weights)
    mu0 = tuple(Fraction(w, sum(w0)) for w in w0)
    mu1 = tuple(Fraction(w, sum(w1)) for w in w1)
    assume(mu0 != mu1)
    return SignalModel(alphabet=tuple(range(k)), mu0=mu0, mu1=mu1)


class TestIidCountDraw:
    """``IidSignals.draw_statistic`` cuts the uniforms that ``choice`` draws."""

    @settings(max_examples=200, deadline=None)
    @given(
        model=positive_models(),
        n=st.integers(1, 30),
        states=st.one_of(
            st.lists(st.integers(0, 1), max_size=300),
            st.builds(lambda state, size: [state] * size, st.integers(0, 1), st.integers(0, 300)),
        ),
        seed=st.integers(0, 2**32),
    )
    def test_counts_are_the_choice_draws_counted(self, model, n, states, seed):
        structure = IidSignals(model)
        states = np.array(states, dtype=np.int64)
        drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        counts = structure.draw_statistic(drawn, states, n)
        expected = reference_iid_counts(structure._probabilities(), reference, states, n)
        assert counts.dtype == expected.dtype
        assert np.array_equal(counts, expected)
        assert drawn.random() == reference.random()


class _FixedDraws:
    """Stands in for a generator: state 1 for every trial of a batch, then
    the given symbol counts, one row repeated or the rows in turn."""

    def __init__(self, counts):
        self.counts = np.array(counts, dtype=np.int64)

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)

    def multinomial(self, n, pvals, size):
        return np.resize(self.counts, (size, self.counts.shape[-1]))


def kernel_rows(monkeypatch) -> list:
    """The count vectors that reach the exact posterior kernel
    (``bounds.count_odds``, through ``decide_counts``), recorded in order."""
    rows, kernel = [], dynamics.count_odds

    def counted(model, counts):
        rows.extend(map(tuple, counts.tolist()))
        return kernel(model, counts)

    monkeypatch.setattr(dynamics, "count_odds", counted)
    return rows


class TestPooledSamplerTies:
    # Odds ratios 2, 4 and 1/8: counts (k, k, k) are an exact tie.
    MODEL = SignalModel(
        alphabet=("a", "b", "c"),
        mu0=(Fraction(1, 4), Fraction(13, 124), Fraction(20, 31)),
        mu1=(Fraction(1, 2), Fraction(13, 31), Fraction(5, 62)),
    )

    def test_exact_tie_at_large_counts(self):
        """Odds ratios 2, 4 and 1/8 cancel on counts (k, k, k).  At k = 3e7
        the float llr is about 2e-9, so a fixed 1e-9 guard would trust its
        sign and report {1} with belief 0.5000000005."""
        k = 30_000_000
        draw = iid_custom(3 * k, self.MODEL).pooled_sampler()
        states, actions, beliefs = draw(_FixedDraws((k, k, k)), 1)
        state, x, action = int(states[0]), float(beliefs[0]), ACTION_SETS[actions[0]]
        assert (state, x, action) == (1, 0.5, ACTION_BOTH)

    def test_decide_counts_finds_the_tie_at_large_counts(self):
        """The reduced odds at counts (10^6, 10^6, 10^6) are powers of two;
        the unreduced weights' powers (31, 62 and 124 among them) took 13 s
        on a 2-core Xeon VM."""
        k = 1_000_000
        start = time.perf_counter()
        codes, xs = decide_counts(self.MODEL, PUBLIC_BELIEF, np.array([[k, k, k]]))
        assert time.perf_counter() - start < 2
        assert (codes.tolist(), xs.tolist()) == ([TIE], [0.5])

    def test_ties_are_rechecked_once_per_distinct_count_vector(self, monkeypatch):
        rechecked = kernel_rows(monkeypatch)
        draw = iid_custom(3000, self.MODEL).pooled_sampler()
        states, actions, beliefs = draw(_FixedDraws((1000, 1000, 1000)), 5)
        assert rechecked == [(1000, 1000, 1000)]
        assert actions.tolist() == [TIE] * 5 and beliefs.tolist() == [0.5] * 5

    def test_the_error_bound_flags_a_tie_above_the_floor(self, monkeypatch):
        """Likelihood ratios 2**-3200 and 2**6400 cancel on counts (2400,
        1200), yet the float llr is about 1.9e-9: its terms near 6.7e6 are
        each rounded.  Only the per-count error bound, not the fixed 1e-9
        floor, sends the row to the exact recheck; the powers of two keep
        that fast."""
        q = 2**3200
        x, y = Fraction(q * q - 1, q**3 - 1), Fraction(q - 1, q**3 - 1)
        model = SignalModel(alphabet=("a", "b"), mu0=(x * q, y), mu1=(x, y * q * q))
        rechecked = kernel_rows(monkeypatch)
        start = time.perf_counter()
        draw = iid_custom(3600, model).pooled_sampler()
        states, actions, beliefs = draw(_FixedDraws((2400, 1200)), 2)
        assert time.perf_counter() - start < 1
        assert rechecked == [(2400, 1200)]
        assert actions.tolist() == [TIE] * 2 and beliefs.tolist() == [0.5] * 2

    # Odds ratios 1 + 3e-12, 1 and 1 - 3e-12: every count vector of a few
    # agents is within the float margin, so each is rechecked, and counts
    # (a, b, c) with different a - c have different posteriors.
    NEAR_EVEN = SignalModel(
        alphabet=("a", "b", "c"),
        mu0=(Fraction(1, 3),) * 3,
        mu1=(Fraction(1, 3) + Fraction(1, 10**12), Fraction(1, 3),
             Fraction(1, 3) - Fraction(1, 10**12)),
    )

    @pytest.mark.parametrize(
        "model, rows, rechecked",
        [
            # Ties (c_a + 2 c_b = 3 c_c) among rows the float llr decides.
            (MODEL,
             [(15, 6, 9), (30, 0, 0), (10, 10, 10), (15, 6, 9), (0, 18, 12), (10, 11, 9),
              (10, 10, 10), (20, 2, 8), (0, 18, 12), (15, 6, 9), (0, 0, 30)],
             [(0, 18, 12), (10, 10, 10), (15, 6, 9), (20, 2, 8)]),
            # Distinct vectors that share a count, so a group starts wherever any differs.
            (NEAR_EVEN,
             [(2, 3, 5), (7, 0, 3), (4, 1, 5), (5, 5, 0), (2, 3, 5), (4, 1, 5), (3, 4, 3),
              (7, 0, 3)],
             [(2, 3, 5), (3, 4, 3), (4, 1, 5), (5, 5, 0), (7, 0, 3)]),
        ],
        ids=["ties", "near-even"],
    )
    def test_tie_rechecks_are_grouped_across_distinct_vectors(
        self, model, rows, rechecked, monkeypatch
    ):
        """Unsorted rows of several distinct flagged vectors: each vector is
        rechecked once, and each row gets its own vector's exact outcome."""
        calls = kernel_rows(monkeypatch)
        draw = iid_custom(sum(rows[0]), model).pooled_sampler()
        _, actions, beliefs = draw(_FixedDraws(rows), len(rows))
        assert sorted(calls) == rechecked
        exact = [count_posterior(model, row) for row in rows]
        assert actions.tolist() == [action_code(x) for x in exact]
        for row, x, belief in zip(rows, exact, beliefs.tolist()):
            if row in rechecked:
                assert belief == float(x)
            else:
                assert belief == pytest.approx(float(x), rel=1e-12)


class TestRegistry:
    def test_build_by_name(self):
        scenario = build_scenario("parity", 3)
        assert scenario.name == "parity(3)"

    def test_unknown_family(self):
        with pytest.raises(ScenarioParameterError):
            build_scenario("nonsense", 3)

    def test_depth_alias(self):
        scenario = build_scenario("geometric_tail", 5, K=3, ratio=Fraction(1, 2))
        assert scenario.metadata["K"] == 3


class TestCustomModel:
    def test_config_roundtrip(self):
        from agreelab.signals import SignalModel

        model = SignalModel(
            ("lo", "mid", "hi"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        data = {
            "alphabet": ["lo", "mid", "hi"],
            "mu0": ["1/2", "1/3", "1/6"],
            "mu1": ["1/6", "1/3", "1/2"],
        }
        assert SignalModel.from_config(data) == model

    def test_scenario_from_config_form(self):
        scenario = build_scenario(
            "iid_custom",
            2,
            model={
                "alphabet": ["0", "1"],
                "mu0": ["2/3", "1/3"],
                "mu1": ["1/3", "2/3"],
            },
        )
        space = scenario.outcome_space()
        assert len(space) == 8

    def test_bad_model_rejected(self):
        with pytest.raises(ScenarioParameterError):
            build_scenario("iid_custom", 2, model=42)
