"""Estimator identities, aggregate bounds, tail bounds, Chebyshev tools."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from agreelab.bounds import (
    ExactSummary,
    _moments,
    _standardized_terms,
    conditional_expectation_interval,
    count_law,
    count_posterior,
    default_eps_grid,
    estimator_moments_by_counts,
    estimator_moments_enumerated,
    estimator_y,
    exact_pooled_summary,
    integer_weights,
    k_statistic,
    learning_bounds,
    likelihood_classes,
    pooled_action_law,
    qn_bound,
)
from agreelab.errors import BoundedBeliefsError, EnumerationBudgetError
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_ZERO,
    optimal_action_set,
    outcome_space_iid,
    pooled_posterior,
)
from agreelab.signals import SignalModel, belief_from_llr, noise_to_signal_ratio

BINARY_23 = SignalModel.binary(Fraction(2, 3))
LOG2 = math.log(2)


class TestEstimatorY:
    def test_cancelling_signals(self):
        # per-agent terms: (log2 + log2/3) / (2 log2/3) = 2 and the mirror -1
        assert estimator_y(BINARY_23, (LOG2, -LOG2)) == pytest.approx(0.5, abs=1e-12)

    def test_two_high_signals(self):
        assert estimator_y(BINARY_23, (LOG2, LOG2)) == pytest.approx(2.0, abs=1e-12)

    def test_unbiased_for_each_state(self):
        """E[Y | S=s] = s by construction, checked by direct enumeration."""
        from agreelab.signals import log_likelihood_ratio

        for model in (BINARY_23, SignalModel.binary(Fraction(3, 4))):
            for state in (0, 1):
                mean = sum(
                    float(model.weight(state, s))
                    * estimator_y(model, (log_likelihood_ratio(model, s),))
                    for s in model.support
                )
                assert mean == pytest.approx(state, abs=1e-12)


class TestAggregateBounds:
    def test_hundred_agents(self):
        report = learning_bounds(100, 8.0)
        assert report.var_bound == pytest.approx(8 / 108, abs=1e-15)
        assert report.action_bound == pytest.approx(76 / 108, abs=1e-15)

    def test_vacuous_row_reported_raw(self):
        report = learning_bounds(8, 8.0)
        assert report.var_bound == pytest.approx(0.5, abs=1e-15)
        assert report.action_bound == pytest.approx(-1.0, abs=1e-15)

    def test_limits(self):
        report = learning_bounds(10**9, 8.0)
        assert report.var_bound == pytest.approx(0.0, abs=1e-6)
        assert report.action_bound == pytest.approx(1.0, abs=1e-6)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=50)
    def test_monotone_in_n(self, n):
        d = 8.0
        a = learning_bounds(n, d)
        b = learning_bounds(n + 1, d)
        assert b.var_bound < a.var_bound
        assert b.action_bound > a.action_bound

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            learning_bounds(0, 8.0)
        with pytest.raises(ValueError):
            learning_bounds(10, 0.0)


class TestKStatistic:
    def test_counts_strictly_below(self):
        assert k_statistic((0.01, 0.3, 0.6), 0.05) == pytest.approx(1 / 3)

    def test_no_agent_below(self):
        assert k_statistic((0.5, 0.9), 0.05) == 0.0

    def test_all_agents_below(self):
        assert k_statistic((0.01, 0.02), 0.05) == 1.0

    def test_threshold_is_strict(self):
        assert k_statistic((0.05,), 0.05) == 0.0


class TestQnBound:
    def test_single_grid_point(self):
        value = qn_bound(100, lambda eps: 0.2, eps_grid=(0.1,))
        assert value == pytest.approx(max(2 * 0.1 / 0.9, 4 / (100 * 0.2)), abs=1e-12)
        assert value == pytest.approx(0.2222222222, abs=1e-9)

    def test_linear_tail_model_matches_grid_search_oracle(self):
        """Oracle: brute-force search balancing 2e/(1-e) against 4/(2ne).

        For P(B < e | S=0) = 2e and n = 100 the two branches cross near
        e = (sqrt(401) - 1) / 200 = 0.095156, value 0.21026.
        """
        eps_opt = (math.sqrt(401) - 1) / 200
        oracle = 2 * eps_opt / (1 - eps_opt)
        dense = default_eps_grid(1e-6, 0.5, 4096)
        value = qn_bound(100, lambda eps: min(2 * eps, 1.0), eps_grid=dense)
        assert value == pytest.approx(oracle, rel=1e-3)
        assert value == pytest.approx(0.2102, abs=5e-4)

    def test_bound_vanishes_for_large_n(self):
        value = qn_bound(10**9, lambda eps: min(2 * eps, 1.0))
        assert value < 1e-3

    def test_no_lower_tail_raises(self):
        with pytest.raises(BoundedBeliefsError):
            qn_bound(100, lambda eps: 0.0)

    def test_bounded_beliefs_below_grid_raise(self):
        # tail only above 1/3, grid capped below it
        cdf = lambda eps: 0.5 if eps > 1 / 3 else 0.0
        with pytest.raises(BoundedBeliefsError):
            qn_bound(100, cdf, eps_grid=default_eps_grid(1e-6, 0.3, 64))


class TestConditionalExpectationInterval:
    def test_standardized_case(self):
        assert conditional_expectation_interval(0.0, 1.0, 0.25) == (-2.0, 2.0)

    def test_deterministic_variable(self):
        lo, hi = conditional_expectation_interval(3.5, 0.0, 0.9)
        assert lo == hi == 3.5

    def test_translation(self):
        assert conditional_expectation_interval(5.0, 1.0, 0.25) == (3.0, 7.0)

    def test_null_event_rejected(self):
        from agreelab.errors import NullConditioningError

        with pytest.raises(NullConditioningError):
            conditional_expectation_interval(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            conditional_expectation_interval(0.0, 1.0, 1.5)

    def test_containment_on_randomized_finite_variables(self):
        """1000 random finite-support variables and events: the directly
        computed conditional mean must land inside the interval."""
        rng = np.random.default_rng(20240601)
        for _ in range(1000):
            size = int(rng.integers(2, 9))
            values = rng.normal(0, 3, size=size)
            probs = rng.dirichlet(np.ones(size))
            membership = rng.integers(0, 2, size=size).astype(bool)
            if not membership.any():
                membership[int(rng.integers(0, size))] = True
            p_event = min(float(probs[membership].sum()), 1.0)
            if p_event <= 0:
                continue
            mean = float(np.dot(probs, values))
            var = float(np.dot(probs, (values - mean) ** 2))
            conditional = float(np.dot(probs[membership], values[membership]) / p_event)
            lo, hi = conditional_expectation_interval(mean, var, p_event)
            assert lo - 1e-12 <= conditional <= hi + 1e-12


class TestEstimatorMoments:
    @pytest.mark.parametrize("p", [Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_deviation_variance_identity(self, p, n):
        model = SignalModel.binary(p)
        d = noise_to_signal_ratio(model)
        moments = estimator_moments_enumerated(model, n)
        assert moments.var_y_minus_s == pytest.approx(d / (4 * n), abs=1e-10)

    def test_covariance_and_variance_identities(self):
        model = BINARY_23
        d = noise_to_signal_ratio(model)
        for n in (1, 3, 7):
            moments = estimator_moments_enumerated(model, n)
            assert moments.cov_s_y == pytest.approx(0.25, abs=1e-12)
            assert moments.var_y == pytest.approx(0.25 * (1 + d / n), abs=1e-10)
            assert moments.mean == pytest.approx(0.5, abs=1e-12)

    def test_enumeration_refuses_beyond_the_budget(self):
        """The same gate as the outcome spaces: 2 * 2**22 pairs are refused."""
        with pytest.raises(EnumerationBudgetError):
            estimator_moments_enumerated(BINARY_23, 22)

    def test_count_form_matches_enumeration(self):
        """The polynomial-in-n route must agree with brute force."""
        for model in (BINARY_23, SignalModel.binary(Fraction(3, 4))):
            for n in (2, 4, 6):
                a = estimator_moments_enumerated(model, n)
                b = estimator_moments_by_counts(model, n)
                assert b.var_y_minus_s == pytest.approx(a.var_y_minus_s, abs=1e-12)
                assert b.cov_s_y == pytest.approx(a.cov_s_y, abs=1e-12)
                assert b.var_y == pytest.approx(a.var_y, abs=1e-12)

    def test_count_form_reaches_large_n(self):
        model = BINARY_23
        d = noise_to_signal_ratio(model)
        moments = estimator_moments_by_counts(model, 400)
        assert moments.var_y_minus_s == pytest.approx(d / 1600, abs=1e-10)

    def test_ternary_model_identity(self):
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        d = noise_to_signal_ratio(model)
        moments = estimator_moments_enumerated(model, 5)
        assert moments.var_y_minus_s == pytest.approx(d / 20, abs=1e-10)


@st.composite
def rational_models(draw):
    """2-4 symbol models with small rational weights; a symbol may carry
    zero weight under both states."""
    size = draw(st.integers(2, 4))
    pairs = draw(
        st.lists(
            st.one_of(st.just((0, 0)), st.tuples(st.integers(1, 9), st.integers(1, 9))),
            min_size=size,
            max_size=size,
        )
    )
    raw0, raw1 = zip(*pairs)
    assume(sum(raw0) > 0)
    mu0 = tuple(Fraction(r, sum(raw0)) for r in raw0)
    mu1 = tuple(Fraction(r, sum(raw1)) for r in raw1)
    assume(mu0 != mu1)
    return SignalModel(alphabet=tuple(range(size)), mu0=mu0, mu1=mu1)


class TestCountLaw:
    """The count-vector kernel against brute force over every profile."""

    @settings(max_examples=60, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 4))
    def test_pooled_summary_matches_profile_enumeration(self, model, n):
        space = outcome_space_iid(model, n)
        success = tie = failure = msbe = Fraction(0)
        for (state, profile), w in space.weights.items():
            x = pooled_posterior(space, profile)
            action = optimal_action_set(x)
            if action == ACTION_BOTH:
                tie += w
            elif action == (ACTION_ONE if state == 1 else ACTION_ZERO):
                success += w
            else:
                failure += w
            msbe += w * (x - state) ** 2
        summary = exact_pooled_summary(model, n)
        assert (summary.success, summary.tie, summary.failure, summary.msbe) == (
            success,
            tie,
            failure,
            msbe,
        )

    @settings(max_examples=60, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 4))
    def test_moments_match_profile_enumeration(self, model, n):
        a = estimator_moments_enumerated(model, n)
        b = estimator_moments_by_counts(model, n)
        # Nearly uninformative models give Y large values, so rounding is
        # measured against E[Y^2].
        tolerance = 1e-12 * (1.0 + a.var_y + a.mean**2)
        for field in ("mean", "var_y_minus_s", "cov_s_y", "var_y"):
            assert getattr(b, field) == pytest.approx(getattr(a, field), abs=tolerance)

    @settings(max_examples=40, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 4))
    def test_enumerated_moments_equal_the_fraction_route(self, model, n):
        """Integer numerators over 2*den**n give the very floats, in the very
        order, of each outcome's weight built as a product of Fractions."""
        terms = _standardized_terms(model)

        def points():
            for state in (0, 1):
                for profile in itertools.product(model.support, repeat=n):
                    w = Fraction(1, 2)
                    for symbol in profile:
                        w *= model.weight(state, symbol)
                    yield float(w), state, sum(terms[s] for s in profile) / n

        assert estimator_moments_enumerated(model, n) == _moments(n, points())

    @settings(max_examples=30, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 6))
    def test_masses_total_one_and_give_the_posterior(self, model, n):
        denominator, rows = count_law(model, n)
        total = 0
        for counts, w0, w1 in rows:
            assert sum(counts) == n
            total += w0 + w1
            assert count_posterior(model, counts) == Fraction(w1, w0 + w1)
        assert total == denominator


def reference_count_law(model, n):
    """The per-row count law: every count vector in lexicographic order, its
    multinomial coefficient and mass products rebuilt over all symbols."""
    den, pairs = integer_weights(model)

    def count_vectors(total, bins):
        if bins == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in count_vectors(total - first, bins - 1):
                yield (first,) + rest

    def multinomial_coefficient(counts):
        out, remaining = 1, sum(counts)
        for c in counts:
            out *= math.comb(remaining, c)
            remaining -= c
        return out

    def rows():
        for counts in count_vectors(n, len(pairs)):
            w0 = w1 = multinomial_coefficient(counts)
            for (a0, a1), c in zip(pairs, counts):
                w0 *= a0**c
                w1 *= a1**c
            yield counts, w0, w1

    return 2 * den**n, rows()


def reference_pooled_summary(model, n):
    """The pooled law decided one count vector at a time."""
    denominator, rows = reference_count_law(model, n)
    success = tie = failure = 0
    errors = []
    for _counts, w0, w1 in rows:
        if w0 == w1:
            tie += w0 + w1
        else:
            success += max(w0, w1)
            failure += min(w0, w1)
        errors.append(Fraction(w0 * w1, w0 + w1))
    while len(errors) > 1:
        errors = [sum(errors[i : i + 2]) for i in range(0, len(errors), 2)]
    return ExactSummary(
        success=Fraction(success, denominator),
        tie=Fraction(tie, denominator),
        failure=Fraction(failure, denominator),
        msbe=errors[0] / denominator,
    )


def raw_model(*pairs):
    """Model whose symbol s has weights proportional to ``pairs[s]``."""
    raw0, raw1 = zip(*pairs)
    return SignalModel(
        alphabet=tuple(range(len(pairs))),
        mu0=tuple(Fraction(r, sum(raw0)) for r in raw0),
        mu1=tuple(Fraction(r, sum(raw1)) for r in raw1),
    )


# Raw weight pairs whose likelihood classes collide across count vectors:
# ratios 2 and 4, 3:1 beside 1:3 (so gcd(o0, o1) > 1), pairs that share a
# factor (2:6, 4:6) and symbols with equal odds.
COLLIDING_PAIRS = [(1, 2), (1, 4), (2, 1), (4, 1), (3, 1), (1, 3), (2, 6), (4, 6),
                   (6, 2), (6, 4), (1, 1), (3, 3), (5, 7), (9, 2)]


@st.composite
def colliding_laws(draw):
    """A model over 2-4 of the colliding pairs and an agent count up to 40
    (20 for four symbols, whose per-row reference sums 12,341 Fractions at
    n = 40)."""
    pairs = draw(st.lists(st.sampled_from(COLLIDING_PAIRS), min_size=2, max_size=4))
    raw0, raw1 = zip(*pairs)
    assume(any(a * sum(raw1) != b * sum(raw0) for a, b in pairs))
    return raw_model(*pairs), draw(st.integers(1, 40 if len(pairs) < 4 else 20))


class TestLikelihoodClasses:
    """Deciding the law once per likelihood class against the per-row law."""

    @settings(max_examples=40, deadline=None)
    @given(law=colliding_laws())
    @example(law=(raw_model((1, 2), (1, 4), (1, 1)), 40))
    @example(law=(raw_model((3, 1), (1, 3)), 40))
    @example(law=(raw_model((2, 6), (4, 6), (6, 2)), 40))
    @example(law=(raw_model((1, 2), (2, 1), (3, 3)), 40))
    def test_classes_equal_the_per_row_law(self, law):
        model, n = law
        denominator, rows = count_law(model, n)
        want_denominator, want_rows = reference_count_law(model, n)
        assert denominator == want_denominator
        assert list(rows) == list(want_rows)
        assert exact_pooled_summary(model, n) == reference_pooled_summary(model, n)

    def test_collisions_are_summed(self):
        """Counts (2, 0, 38) and (0, 1, 39) of ratios 2, 4 and 1 share one
        class, and 3:1 beside 1:3 reduces its shared factor."""
        denominator, classes = likelihood_classes(raw_model((1, 2), (1, 4), (1, 1)), 40)
        assert len(classes) < math.comb(42, 2)
        assert all(math.gcd(o0, o1) == 1 for o0, o1 in classes)
        denominator, classes = likelihood_classes(raw_model((3, 1), (1, 3)), 4)
        assert set(classes) == {(81, 1), (9, 1), (1, 1), (1, 9), (1, 81)}
        success, tie, failure = pooled_action_law(denominator, classes)
        assert tie == Fraction(2 * 6 * 3**2, 2 * 4**4)
        assert success + tie + failure == 1

    @pytest.mark.parametrize(
        "model, n, recorded",
        [
            (
                SignalModel(
                    (0, 1, 2),
                    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
                    (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
                ),
                150,
                (0.4999999999999967, 0.008333333333333314, 0.25000000000000044, 0.2583333333333329),
            ),
            (BINARY_23, 300, (0.5000000000000002, 0.006666666666666673, 0.25, 0.2566666666666666)),
            (
                SignalModel(
                    ("a", "b", "c", "d"),
                    (Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)),
                    (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(2, 5)),
                ),
                40,
                (0.5000000000000014, 0.02504329864651198, 0.25000000000000094, 0.2750432986465008),
            ),
        ],
    )
    def test_estimator_moments_are_the_recorded_floats(self, model, n, recorded):
        """Values recorded from the per-row count law; the rows, their order
        and so every rounding step are unchanged."""
        moments = estimator_moments_by_counts(model, n)
        assert (moments.mean, moments.var_y_minus_s, moments.cov_s_y, moments.var_y) == recorded


class TestMonotoneCorrelationStep:
    """E[Z g(Z) | X] >= E[g(Z) | X] E[Z | X] for increasing g, with equality
    exactly when Z is conditionally constant."""

    def test_randomized_small_joints(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_x = int(rng.integers(1, 4))
            n_z = int(rng.integers(1, 5))
            z_values = rng.normal(0, 2, size=n_z)
            joint = rng.dirichlet(np.ones(n_x * n_z)).reshape(n_x, n_z)
            for ix in range(n_x):
                row = joint[ix]
                mass = row.sum()
                if mass <= 0:
                    continue
                cond = row / mass
                gz = np.array([belief_from_llr(z) for z in z_values])
                lhs = float(np.dot(cond, z_values * gz))
                rhs = float(np.dot(cond, gz)) * float(np.dot(cond, z_values))
                assert lhs >= rhs - 1e-12
                support = z_values[cond > 1e-12]
                if support.size > 1 and np.ptp(support) > 1e-9:
                    assert lhs > rhs
                else:
                    assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_equality_for_conditionally_constant_variable(self):
        z = 0.7
        g = belief_from_llr(z)
        assert z * g == pytest.approx(g * z, abs=1e-15)


class TestGridConstruction:
    def test_default_grid_shape(self):
        grid = default_eps_grid()
        assert len(grid) == 512
        assert grid[0] == pytest.approx(1e-6)
        assert grid[-1] == pytest.approx(0.5)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            default_eps_grid(0.5, 0.1, 10)
        with pytest.raises(ValueError):
            default_eps_grid(1e-6, 0.5, 0)
