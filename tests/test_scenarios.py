"""Scenario constructors: the benchmark families and their structure."""

import math
from fractions import Fraction

import numpy as np
import pytest
from reference import refine_by_announcement

from agreelab.bounds import odds_posterior
from agreelab.errors import ScenarioParameterError
from agreelab.harness import senate_exact_summary
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    TIE,
    belief_function,
    block_beliefs,
    optimal_action_set,
    own_signal_partitions,
    pooled_posterior,
)
from agreelab.scenarios import (
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
        scenario = uncorrelated_tight(8)
        space = scenario.outcome_space()
        draw = scenario.profile_sampler(space)
        rng = np.random.default_rng(0)
        _states, index = draw(rng, 50)
        for i in index.tolist():
            profile = space.profiles[i]
            assert sum(profile) in (2, 6)


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
        fns = [belief_function(space, p) for p in refined]
        success = Fraction(0)
        for profile in space.profiles:
            actions = {optimal_action_set(fn(profile)) for fn in fns}
            assert len(actions) == 1
            action = actions.pop()
            for state in (0, 1):
                w = space.weights.get((state, profile), Fraction(0))
                if action == (ACTION_ONE if state == 1 else ACTION_ZERO):
                    success += w
        assert success == scenario.metadata["q"]


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
        """The large-n sampler and the exact engine agree on the committee
        verdict and the continued-dynamics action (validated per profile in
        the dynamics tests); here the sampler's bookkeeping is spot-checked."""
        scenario = senate(6, senate_size=2, accuracy=Fraction(2, 3))
        draw = scenario.structure.action_trial_sampler(6)
        rng = np.random.default_rng(1)
        for state, committee, common, tally in zip(*(a.tolist() for a in draw(rng, 200))):
            committee, common = ACTION_SETS[committee], ACTION_SETS[common]
            assert committee == optimal_action_set(scenario.structure.tally_posterior(tally))
            if committee != ACTION_BOTH:
                assert common == committee

    def test_tally_posterior_is_exact(self):
        structure = senate(200).structure
        assert structure.tally_posterior(50) == Fraction(1, 2)
        assert structure.tally_posterior(51) == Fraction(4, 5)  # odds 2^2
        assert structure.tally_posterior(49) == Fraction(1, 5)


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


class _FixedDraws:
    """Stands in for a generator: state 1, then the given symbol counts,
    for every trial of a batch."""

    def __init__(self, counts):
        self.counts = np.array(counts, dtype=np.int64)

    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)

    def multinomial(self, n, pvals, size):
        return np.tile(self.counts, (size, 1))


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

    def test_ties_are_rechecked_once_per_distinct_count_vector(self, monkeypatch):
        from agreelab import scenarios

        rechecked = []

        def counted(odds, counts):
            rechecked.append(tuple(counts))
            return odds_posterior(odds, counts)

        monkeypatch.setattr(scenarios, "odds_posterior", counted)
        draw = iid_custom(3000, self.MODEL).pooled_sampler()
        states, actions, beliefs = draw(_FixedDraws((1000, 1000, 1000)), 5)
        assert rechecked == [(1000, 1000, 1000)]
        assert actions.tolist() == [TIE] * 5 and beliefs.tolist() == [0.5] * 5


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
        data = model.to_config()
        assert data["mu0"] == ["1/2", "1/3", "1/6"]
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
