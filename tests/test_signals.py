"""Signal-model primitives: ratios, beliefs, divergences, noise-to-signal."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agreelab.errors import (
    AbsoluteContinuityError,
    NonInformativeModelError,
    NonInformativeTruncationError,
    UnknownSymbolError,
)
from agreelab.signals import (
    SignalModel,
    as_weight,
    belief_from_llr,
    belief_range,
    belief_tail_cdf,
    cov_state_llr,
    kl_divergence,
    log_likelihood_ratio,
    noise_to_signal_ratio,
    private_belief,
    symmetrized_divergence,
    truncate_llr,
    truncated_model,
)

BINARY_23 = SignalModel.binary(Fraction(2, 3))


def random_rational_model(rng, size=3) -> SignalModel:
    """Random small-denominator model, informative and fully supported."""
    while True:
        mu = []
        for _ in range(2):
            raw = [Fraction(int(k)) for k in rng.integers(1, 10, size=size)]
            total = sum(raw)
            mu.append(tuple(w / total for w in raw))
        if mu[0] != mu[1]:
            return SignalModel(alphabet=tuple(range(size)), mu0=mu[0], mu1=mu[1])


class TestModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SignalModel((0, 1), (Fraction(1, 2), Fraction(1, 3)), (Fraction(1, 2), Fraction(1, 2)))

    def test_weights_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            SignalModel((0, 1), (Fraction(3, 2), Fraction(-1, 2)), (Fraction(1, 2), Fraction(1, 2)))

    def test_support_mismatch_rejected(self):
        with pytest.raises(AbsoluteContinuityError):
            SignalModel((0, 1), (1, 0), (Fraction(1, 2), Fraction(1, 2)))

    def test_identical_conditionals_rejected(self):
        with pytest.raises(NonInformativeModelError):
            SignalModel((0, 1), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2)))

    def test_uninformative_binary_rejected(self):
        with pytest.raises(NonInformativeModelError):
            SignalModel.binary(Fraction(1, 2))

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError):
            SignalModel((0, 0), (Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 3), Fraction(2, 3)))

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_non_finite_weights_rejected(self, value):
        with pytest.raises(ValueError):
            as_weight(value)


class TestLogLikelihoodRatio:
    def test_high_symbol_is_log_two(self):
        # direct evaluation: log((2/3) / (1/3)) = log 2
        assert log_likelihood_ratio(BINARY_23, 1) == pytest.approx(math.log(2), abs=1e-15)

    def test_low_symbol_is_minus_log_two(self):
        assert log_likelihood_ratio(BINARY_23, 0) == pytest.approx(-math.log(2), abs=1e-15)

    def test_equal_weights_give_zero(self):
        model = SignalModel(
            (0, 1, 2),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)),
            (Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)),
        )
        assert log_likelihood_ratio(model, 2) == 0.0

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            log_likelihood_ratio(BINARY_23, 7)

    def test_zero_weight_symbol(self):
        model = SignalModel(
            (0, 1, 2),
            (Fraction(1, 3), Fraction(2, 3), 0),
            (Fraction(2, 3), Fraction(1, 3), 0),
        )
        with pytest.raises(AbsoluteContinuityError):
            log_likelihood_ratio(model, 2)


class TestBeliefFromLlr:
    def test_zero_maps_to_half(self):
        assert belief_from_llr(0.0) == 0.5

    def test_log_two_maps_to_two_thirds(self):
        # e^z / (1 + e^z) with e^z = 2
        assert belief_from_llr(math.log(2)) == pytest.approx(2 / 3, abs=1e-15)

    def test_two_log_two_maps_to_four_fifths(self):
        # e^z = 4
        assert belief_from_llr(2 * math.log(2)) == pytest.approx(4 / 5, abs=1e-15)

    @given(st.floats(min_value=-50, max_value=50))
    def test_symmetry(self, z):
        assert belief_from_llr(z) + belief_from_llr(-z) == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing(self):
        zs = [i / 10 for i in range(-100, 101)]
        values = [belief_from_llr(z) for z in zs]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestPrivateBelief:
    def test_binary_values(self):
        assert private_belief(BINARY_23, 1) == Fraction(2, 3)
        assert private_belief(BINARY_23, 0) == Fraction(1, 3)

    def test_matches_llr_map(self):
        rng = __import__("numpy").random.default_rng(7)
        for _ in range(20):
            model = random_rational_model(rng)
            for symbol in model.support:
                exact = float(private_belief(model, symbol))
                via_llr = belief_from_llr(log_likelihood_ratio(model, symbol))
                assert exact == pytest.approx(via_llr, abs=1e-12)


class TestKlDivergence:
    def test_identical_distributions(self):
        assert kl_divergence((Fraction(1, 3), Fraction(2, 3)), (Fraction(1, 3), Fraction(2, 3))) == 0.0

    def test_binary_example(self):
        # term-by-term: (1/3) log(1/2) + (2/3) log(2) = (1/3) log 2
        value = kl_divergence((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3)))
        assert value == pytest.approx(math.log(2) / 3, abs=1e-15)

    def test_reversed_pair_symmetric_here(self):
        forward = kl_divergence((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(1, 3)))
        reverse = kl_divergence((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 3), Fraction(2, 3)))
        assert forward == pytest.approx(reverse, abs=1e-15)

    def test_support_mismatch(self):
        with pytest.raises(AbsoluteContinuityError):
            kl_divergence((1, 0), (Fraction(1, 2), Fraction(1, 2)))

    def test_nonnegative_and_zero_iff_equal(self):
        rng = __import__("numpy").random.default_rng(3)
        for _ in range(100):
            model = random_rational_model(rng, size=4)
            value = kl_divergence(model.mu1, model.mu0)
            assert value > 0.0
            assert kl_divergence(model.mu1, model.mu1) == 0.0


class TestNoiseToSignalRatio:
    def test_binary_two_thirds_is_eight(self):
        # closed form 4p(1-p)/(2p-1)^2 at p = 2/3
        assert noise_to_signal_ratio(BINARY_23) == pytest.approx(8.0, abs=1e-12)

    def test_binary_three_quarters_is_three(self):
        assert noise_to_signal_ratio(SignalModel.binary(Fraction(3, 4))) == pytest.approx(3.0, abs=1e-12)

    def test_swap_invariance(self):
        model = SignalModel(
            (0, 1, 2),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        swapped = SignalModel((0, 1, 2), model.mu1, model.mu0)
        assert noise_to_signal_ratio(model) == pytest.approx(
            noise_to_signal_ratio(swapped), abs=1e-12
        )

    @given(st.integers(min_value=1, max_value=48))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_binary_closed_form(self, step):
        # p ranges over (1/2, 1) on a rational grid
        p = Fraction(1, 2) + Fraction(step, 100)
        model = SignalModel.binary(p)
        closed = float(4 * p * (1 - p) / (2 * p - 1) ** 2)
        assert noise_to_signal_ratio(model) == pytest.approx(closed, rel=1e-12)

    def test_relabelling_invariance(self):
        rng = __import__("numpy").random.default_rng(11)
        model = random_rational_model(rng, size=4)
        mapping = {0: "d", 1: "a", 2: "c", 3: "b"}
        relabelled = SignalModel(tuple(mapping[s] for s in model.alphabet), model.mu0, model.mu1)
        assert noise_to_signal_ratio(model) == pytest.approx(
            noise_to_signal_ratio(relabelled), abs=1e-12
        )
        assert kl_divergence(model.mu1, model.mu0) == pytest.approx(
            kl_divergence(relabelled.mu1, relabelled.mu0), abs=1e-15
        )


class TestStateLlrCovariance:
    """Cov(S, z) must equal one quarter of the symmetrized divergence."""

    def test_enumeration_matches_divergence_form(self):
        rng = __import__("numpy").random.default_rng(5)
        models = [BINARY_23, SignalModel.binary(Fraction(3, 5))]
        models += [random_rational_model(rng, size=s) for s in (2, 3, 4, 5)]
        for model in models:
            enumerated = cov_state_llr(model)
            identity = symmetrized_divergence(model) / 4
            assert enumerated == pytest.approx(identity, abs=1e-12)
            assert enumerated > 0


class TestTruncation:
    def test_inside_threshold_kept(self):
        assert truncate_llr(0.5, 1.0) == 0.5

    def test_outside_threshold_zeroed(self):
        assert truncate_llr(3.0, 1.0) == 0.0

    def test_symmetric_case(self):
        assert truncate_llr(-3.0, 1.0) == 0.0

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            truncate_llr(1.0, 0.0)

    def test_truncated_model_groups_by_censoring(self):
        from agreelab.scenarios import geometric_tail_model

        model = geometric_tail_model(4, Fraction(7, 10))
        cut = truncated_model(model, 2.5)
        # values +-3, +-4 are censored into the zero group; +-1, +-2 survive
        assert len(cut.alphabet) == 5
        llrs = sorted(log_likelihood_ratio(cut, s) for s in cut.alphabet)
        assert llrs[0] == pytest.approx(-2.0, abs=1e-9)
        assert llrs[-1] == pytest.approx(2.0, abs=1e-9)

    def test_truncated_model_still_informative_has_noise_ratio(self):
        from agreelab.scenarios import geometric_tail_model

        model = geometric_tail_model(4, Fraction(7, 10))
        cut = truncated_model(model, 2.5)
        assert noise_to_signal_ratio(cut) > 0

    def test_degenerate_truncation_detected(self):
        # every informative symbol of the symmetric binary model carries
        # |llr| = log 2, so any threshold below that censors everything
        with pytest.raises(NonInformativeTruncationError):
            truncated_model(BINARY_23, 0.5)


class TestBeliefSummaries:
    def test_belief_range_binary(self):
        low, high = belief_range(BINARY_23)
        assert (low, high) == (Fraction(1, 3), Fraction(2, 3))

    def test_tail_cdf_is_exact_and_monotone(self):
        from agreelab.scenarios import geometric_tail_model

        model = geometric_tail_model(6, Fraction(7, 10))
        cdf = belief_tail_cdf(model, 0)
        values = [cdf(eps) for eps in (1e-6, 1e-3, 0.05, 0.2, 0.5, 0.99)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] <= 1
        # mass below one half under state 0 dominates for a mirrored model
        assert cdf(0.5) > Fraction(1, 2)

    def test_tail_cdf_equals_the_running_sum_loop(self):
        """Bisection returns the very Fractions the loop over sorted beliefs
        summed: at every attained belief, below all, above all, between."""
        from agreelab.bounds import default_eps_grid
        from agreelab.scenarios import geometric_tail_model

        def by_loop(model, state):
            pairs = sorted((private_belief(model, s), model.weight(state, s)) for s in model.support)

            def cdf(eps):
                total = Fraction(0)
                for belief, w in pairs:
                    if belief < eps:
                        total += w
                    else:
                        break
                return total

            return cdf

        # two symbols share the belief 3/4 with different weights
        repeated = SignalModel(
            ("a", "b", "c", "d"),
            (Fraction(1, 8), Fraction(1, 16), Fraction(1, 2), Fraction(5, 16)),
            (Fraction(3, 8), Fraction(3, 16), Fraction(3, 16), Fraction(1, 4)),
        )
        for model in (geometric_tail_model(12, Fraction(7, 10)), BINARY_23, repeated):
            beliefs = sorted({private_belief(model, s) for s in model.support})
            grid = list(default_eps_grid(1e-6, 0.5, 64)) + [0.0, 1e-300, 0.999999, 1.0, 2.0]
            grid += [math.nan, math.inf, -math.inf, Fraction(0), Fraction(3, 2)]
            grid += [math.nextafter(float(b), side) for b in beliefs for side in (0.0, 1.0)]
            grid += beliefs + [float(b) for b in beliefs]
            grid += [(a + b) / 2 for a, b in zip(beliefs, beliefs[1:])]
            for state in (0, 1):
                new, old = belief_tail_cdf(model, state), by_loop(model, state)
                for eps in grid:
                    got, want = new(eps), old(eps)
                    assert type(got) is Fraction
                    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
