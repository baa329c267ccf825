"""Estimator identities, aggregate bounds, tail bounds, Chebyshev tools."""

import bisect
import functools
import itertools
import math
import operator
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reference import law_rows, reference_count_law, reference_pooled_summary

from agreelab import bounds
from agreelab.bounds import (
    BLOCK_ROWS,
    MAX_EPS_GRID_POINTS,
    EstimatorMoments,
    ExactSummary,
    _exact_msbe,
    _moments,
    _standardized_terms,
    _summation_keys,
    belief_error_terms,
    certified_msbe,
    conditional_expectation_interval,
    count_law,
    count_odds,
    count_posterior,
    count_rows,
    default_eps_grid,
    estimator_moments_by_counts,
    estimator_moments_enumerated,
    estimator_y,
    exact_pooled_summary,
    k_statistic,
    learning_bounds,
    likelihood_classes,
    odds_basis,
    pooled_action_law,
    qn_bound,
    qn_bounds,
    reduced_odds,
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
from agreelab.scenarios import geometric_tail_model
from agreelab.signals import (
    SignalModel,
    belief_from_llr,
    belief_tail_cdf,
    llr_conditional_moments,
    noise_to_signal_ratio,
)

BINARY_23 = SignalModel.binary(Fraction(2, 3))
TERNARY = SignalModel(
    (0, 1, 2),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2)),
)
LOG2 = math.log(2)


def left_to_right(values) -> float:
    """Floats added in order from 0.0, one rounding per addition: builtin
    ``sum`` up to Python 3.11 (from 3.12 on it compensates)."""
    return functools.reduce(operator.add, values, 0.0)


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


class TestLeftToRightSums:
    """Y adds its terms left to right on every Python version.  Each input
    here is one where a compensated sum (``math.fsum`` stands in for the
    builtin ``sum`` of Python 3.12+) gives other floats, so the builtin
    ``sum`` fails these tests on 3.12+ and passes them only up to 3.11."""

    def test_estimator_y(self):
        m0, m1, _, _ = llr_conditional_moments(BINARY_23)
        llrs = [m0 + (m1 - m0) * t for t in (1e16, 1.0, -1e16)]
        terms = [(z - m0) / (m1 - m0) for z in llrs]
        assert math.fsum(terms) != left_to_right(terms)
        assert estimator_y(BINARY_23, llrs) == left_to_right(terms) / len(llrs)

    def test_enumerated_moments(self):
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
            (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
        )
        n = 3
        terms = _standardized_terms(model)

        def moments(add):
            def points():
                for state in (0, 1):
                    for profile in itertools.product(model.support, repeat=n):
                        w = Fraction(1, 2)
                        for symbol in profile:
                            w *= model.weight(state, symbol)
                        yield float(w), state, add(terms[s] for s in profile) / n

            return reference_moments(n, points())

        assert moments(math.fsum) != moments(left_to_right)
        assert estimator_moments_enumerated(model, n) == moments(left_to_right)


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

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 1.5])
    def test_threshold_outside_the_unit_interval_raises(self, eps):
        with pytest.raises(ValueError, match="thresholds"):
            qn_bound(100, lambda _: 0.5, eps_grid=(0.1, eps, 0.2))

    @pytest.mark.parametrize("tail", [-0.1, 1.5, Fraction(-1, 3), Fraction(4, 3)])
    def test_cdf_value_outside_the_unit_interval_raises(self, tail):
        with pytest.raises(ValueError, match="cdf values"):
            qn_bound(100, lambda _: tail, eps_grid=(0.1, 0.2))

    def test_late_out_of_range_cdf_value_raises(self):
        """In-range values on the first grid points do not excuse a later one."""
        low, high = Fraction(1, 5), Fraction(6, 5)
        cdf = lambda eps: low if eps < 0.3 else high
        with pytest.raises(ValueError, match="cdf values"):
            qn_bound(100, cdf, eps_grid=default_eps_grid(1e-6, 0.5, 64))

    def test_fresh_equal_cdf_values(self):
        """A cdf that builds a new, equal object on every call gives the bound
        of one that returns a shared object."""
        shared = Fraction(1, 5)
        grid = default_eps_grid(1e-6, 0.5, 64)
        fresh = qn_bound(100, lambda eps: Fraction(1, 5), eps_grid=grid)
        assert fresh == qn_bound(100, lambda eps: shared, eps_grid=grid)
        assert fresh == reference_qn_bound(100, lambda eps: Fraction(1, 5), eps_grid=grid)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        grid=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=40),
        steps=st.lists(st.floats(0.0, 1.0), max_size=6),
        levels=st.lists(st.fractions(0, 1, max_denominator=50), min_size=7, max_size=7),
        fresh=st.booleans(),
    )
    def test_equals_the_per_grid_point_loop(self, n, grid, steps, levels, fresh):
        """Random grids and step cdfs, whose distinct values are shared objects
        or rebuilt on every call, give the very float of the reference loop."""
        steps, levels = sorted(steps), sorted(levels)

        def cdf(eps):
            level = levels[bisect.bisect_right(steps, eps)]
            return Fraction(level) if fresh else level

        def outcome(bound):
            try:
                return bound(n, cdf, eps_grid=grid)
            except BoundedBeliefsError:
                return BoundedBeliefsError

        assert outcome(qn_bound) == outcome(reference_qn_bound)

    def test_positive_tail_below_the_smallest_float(self):
        """Tails of 10**-400 round to 0.0 but are positive: the point's
        4/(nP) term is +inf, with no numpy warning, and the other grid points
        decide; the parent loop divided by zero."""
        tiny, tinier = Fraction(1, 10**400), Fraction(1, 10**800)
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(3, 4) - tiny, Fraction(1, 4), tiny),
            (Fraction(1, 4), Fraction(3, 4) - tinier, tinier),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert qn_bound(10, belief_tail_cdf(model, 0)) == 0.6897992329287744
            assert qn_bound(10, lambda eps: tiny, eps_grid=(0.1, 0.2)) == math.inf

    def test_numpy_agent_counts_are_accepted(self):
        grid = default_eps_grid(1e-6, 0.5, 64)
        cdf = lambda eps: min(2 * eps, 1.0)
        expected = qn_bound(100, cdf, eps_grid=grid)
        assert qn_bound(np.int64(100), cdf, eps_grid=grid) == expected
        assert qn_bounds(np.array([100, 100], dtype=np.int32), cdf, eps_grid=grid) == [expected] * 2

    @settings(max_examples=150, deadline=None)
    @given(case=st.data())
    def test_several_agent_counts_equal_the_per_grid_point_loop(self, case):
        """Several n (with repeats), unsorted grids with repeated points,
        Fraction and float tails, all-zero tails and out-of-range thresholds
        or tails: bit for bit the values, or the very error, of the
        reference loop run once per n."""
        draw = case.draw
        ns = draw(st.lists(st.integers(1, 10**9), min_size=1, max_size=5))
        ns += draw(st.lists(st.sampled_from(ns), max_size=3))
        inside = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
        grid = draw(st.lists(inside, min_size=1, max_size=30))
        grid += draw(st.lists(st.sampled_from(grid), max_size=10))
        bad_eps = draw(st.sampled_from([None] * 6 + [0.0, 1.0, -0.5, 1.5, math.nan]))
        if bad_eps is not None:
            grid.insert(draw(st.integers(0, len(grid))), bad_eps)
        steps = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=6)))
        fractions = st.fractions(0, 1, max_denominator=10**6)
        level = st.one_of(st.just(0), fractions, st.floats(0.0, 1.0))
        levels = sorted(draw(st.lists(level, min_size=len(steps) + 1, max_size=len(steps) + 1)))
        if draw(st.integers(0, 9)) == 0:
            levels = [0] * len(levels)
        bad_tail = draw(st.sampled_from([None] * 6 + [-0.1, 1.5, Fraction(4, 3), math.nan]))
        if bad_tail is not None:
            levels[draw(st.integers(0, len(steps)))] = bad_tail
        fresh = draw(st.booleans())

        def cdf(eps):
            value = levels[bisect.bisect_right(steps, eps)]
            return Fraction(value) if fresh and isinstance(value, Fraction) else value

        def outcome(call):
            try:
                return [value.hex() for value in call()]
            except ValueError as exc:  # BoundedBeliefsError included
                return type(exc), str(exc)

        assert outcome(lambda: qn_bounds(ns, cdf, eps_grid=grid)) == outcome(
            lambda: [reference_qn_bound(n, cdf, grid) for n in ns]
        )


def reference_qn_bound(n, cdf_given_s0, eps_grid):
    """The tail bound checked and converted at every grid point."""
    best = None
    for eps in eps_grid:
        if not 0 < eps < 1:
            raise ValueError("thresholds must lie in (0, 1)")
        tail = cdf_given_s0(eps)
        if not 0 <= tail <= 1:
            raise ValueError("cdf values must lie in [0, 1]")
        if tail == 0:
            continue
        value = max(2.0 * eps / (1.0 - eps), 4.0 / (n * float(tail)))
        if best is None or value < best:
            best = value
    if best is None:
        raise BoundedBeliefsError("no grid point has a positive conditional lower tail")
    return best


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
    def test_squares_are_correctly_rounded(self):
        """``** 2`` calls the C library's ``pow``, which rounds the square of
        this x - 1/2 wrongly on some platforms (glibc under CPython 3.11.7,
        for one); the moments square with ``d * d``, correctly rounded."""
        x = float.fromhex("0x1.ef9a16f7654e7p-1")
        moments = _moments(1, [(np.array([1.0]), np.array([0.0]), np.array([x]))])
        bias = x - 0.5
        assert moments.var_y_minus_s == float(Fraction(x) ** 2) - float(Fraction(bias) ** 2)

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

    @pytest.mark.parametrize(
        "law, n",
        [
            (estimator_moments_enumerated, 0),
            (estimator_moments_enumerated, -1),
            (estimator_moments_by_counts, 0),
            (estimator_moments_by_counts, -1),
            (count_law, -1),
            (exact_pooled_summary, -1),
        ],
    )
    def test_too_few_agents_are_refused(self, law, n):
        """Y averages over the agents, so the moments need one; the count
        law, and the pooled law read from it, need a count of none or more."""
        with pytest.raises(ValueError, match="agent count must be"):
            law(BINARY_23, n)

    def test_pooled_law_of_no_agents(self):
        """No signals leave the prior: a tie, at squared belief error 1/4."""
        assert exact_pooled_summary(BINARY_23, 0) == ExactSummary(0, 1, 0, Fraction(1, 4))

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
    @example(model=TERNARY, n=7)
    def test_enumerated_moments_equal_the_fraction_route(self, model, n):
        """Integer numerators over 2*den**n give the very floats, in the very
        order, of each outcome's weight built as a product of Fractions.  At
        n = 7 a ternary model's 3**7 profiles per state span nine blocks of
        256, the last one partial, so the sums carry across block seams."""
        terms = _standardized_terms(model)

        def points():
            for state in (0, 1):
                for profile in itertools.product(model.support, repeat=n):
                    w = Fraction(1, 2)
                    for symbol in profile:
                        w *= model.weight(state, symbol)
                    yield float(w), state, left_to_right(terms[s] for s in profile) / n

        assert estimator_moments_enumerated(model, n) == reference_moments(n, points())

    @pytest.mark.parametrize("counts", [(3,), (3, 0, 5)], ids=["short", "long"])
    def test_posterior_refuses_counts_of_the_wrong_length(self, counts):
        """One count per support symbol: ``zip`` would drop or ignore the rest."""
        with pytest.raises(ValueError, match="one per support symbol"):
            count_posterior(BINARY_23, counts)

    def test_posterior_refuses_negative_counts(self):
        """A negative count would turn ``a ** c`` into a float."""
        with pytest.raises(ValueError, match="non-negative counts"):
            count_posterior(BINARY_23, (4, -1))

    @pytest.mark.parametrize("counts", [(1.5, 2), np.array([1.5, 2.0])], ids=["tuple", "array"])
    def test_posterior_refuses_non_integral_counts(self, counts):
        """Truncated, counts (1.5, 2) would give the posterior of (1, 2)."""
        with pytest.raises(ValueError, match="whole numbers"):
            count_posterior(BINARY_23, counts)

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[2**63, 1]], dtype=np.uint64),
            np.array([[2.0**63, 1.0]]),
            [[2**64, 1]],
            np.array([[True, False]]),
        ],
        ids=["uint64", "float", "python-int", "bool"],
    )
    def test_counts_past_int64_and_booleans_are_refused(self, counts):
        """Cast to ``int64`` unchecked, uint64 and float counts of 2**63 wrap
        to negative rows (the floats with numpy's cast warning), giving the
        odds (0.0, 2.0); a Python int past 2**64 raises OverflowError; and
        booleans pass as 1 and 0."""
        with pytest.raises(ValueError):
            count_odds(BINARY_23, counts)

    @pytest.mark.parametrize(
        "counts",
        [[[True, 2]], [[2, np.True_]], np.array([[True, 2]], dtype=object), [["a", 1]], [["1", 2]]],
        ids=["bool-in-list", "numpy-bool-in-list", "bool-in-object-array", "letter", "digit-string"],
    )
    def test_counts_mixing_booleans_or_strings_are_refused(self, counts):
        """numpy casts a boolean among integers to 1, so ``[[True, 2]]`` gave
        the odds of (1, 2); a string row escaped as numpy's ``UFuncTypeError``."""
        with pytest.raises(ValueError, match="real numbers"):
            count_odds(BINARY_23, counts)

    def test_the_largest_int64_count_is_kept(self):
        top = np.array([[2**63 - 1, 0]], dtype=np.uint64)
        assert count_rows(BINARY_23, top).tolist() == [[2**63 - 1, 0]]

    def test_laws_take_zero_agents_and_numpy_counts(self):
        """No agent leaves the prior's law, one empty row of mass 1/2 per
        state; a numpy agent count is the integer it holds."""
        denominator, blocks = count_law(BINARY_23, 0)
        assert (denominator, law_rows(blocks)) == (2, [((0, 0), 1, 1)])
        assert likelihood_classes(BINARY_23, np.int64(0)) == (2, {(1, 1): 1}, [[0, 0]])
        assert exact_pooled_summary(BINARY_23, np.int64(3)) == exact_pooled_summary(BINARY_23, 3)

    @settings(max_examples=30, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 6))
    def test_masses_total_one_and_give_the_posterior(self, model, n):
        denominator, blocks = count_law(model, n)
        total = 0
        for counts, w0, w1 in law_rows(blocks):
            assert sum(counts) == n
            total += w0 + w1
            assert count_posterior(model, counts) == Fraction(w1, w0 + w1)
        assert total == denominator


def reference_moments(n, points):
    """Estimator moments from (probability, state, Y) points, each added to
    four running float sums in turn."""
    e_y = e_y2 = e_sy = e_dev2 = 0.0
    for wf, state, y in points:
        e_y += wf * y
        e_y2 += wf * y * y
        e_sy += wf * state * y
        e_dev2 += wf * ((y - state) * (y - state))
    return EstimatorMoments(
        n=n,
        mean=e_y,
        var_y_minus_s=e_dev2 - (e_y - 0.5) * (e_y - 0.5),
        cov_s_y=e_sy - 0.5 * e_y,
        var_y=e_y2 - e_y * e_y,
    )


def reference_moments_by_counts(model, n):
    """The estimator moments one row at a time: a point per row and state,
    Y summed left to right over the symbols (as the builtin ``sum`` adds
    floats before Python 3.12)."""
    terms = _standardized_terms(model)
    values = [terms[s] for s in model.support]
    denominator, rows = reference_count_law(model, n)

    def points():
        for counts, w0, w1 in rows:
            y = 0
            for c, v in zip(counts, values):
                y = y + c * v
            yield w0 / denominator, 0, y / n
            yield w1 / denominator, 1, y / n

    return reference_moments(n, points())


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
        denominator, blocks = count_law(model, n)
        want_denominator, want_rows = reference_count_law(model, n)
        assert denominator == want_denominator
        assert law_rows(blocks) == list(want_rows)
        assert exact_pooled_summary(model, n) == reference_pooled_summary(model, n)

    @settings(max_examples=40, deadline=None)
    @given(law=colliding_laws())
    @example(law=(BINARY_23, 255))
    @example(law=(BINARY_23, 256))
    @example(law=(BINARY_23, 511))
    @example(law=(BINARY_23, 512))
    @example(law=(raw_model((1, 2), (1, 1), (2, 1)), 22))
    def test_moments_equal_the_per_row_law(self, law):
        """Block-wise sums are the per-row sums, float for float; binary at
        n = 255 and 256 has 256 and 257 rows, at n = 511 and 512 one full
        block of ``BLOCK_ROWS`` = 512 rows, then one block and one row, and
        ternary at n = 22 has 276."""
        model, n = law
        assert estimator_moments_by_counts(model, n) == reference_moments_by_counts(model, n)

    def test_collisions_are_summed(self):
        """Counts (2, 0, 38) and (0, 1, 39) of ratios 2, 4 and 1 share one
        class, and 3:1 beside 1:3 reduces its shared factor."""
        denominator, classes, _firsts = likelihood_classes(raw_model((1, 2), (1, 4), (1, 1)), 40)
        assert len(classes) < math.comb(42, 2)
        assert all(math.gcd(o0, o1) == 1 for o0, o1 in classes)
        denominator, classes, _firsts = likelihood_classes(raw_model((3, 1), (1, 3)), 4)
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


# The four-symbol model whose classes rarely collide (3,202 classes, each its
# own denominator, at n = 40), and a binary model whose odds 3/2 and 2/3 give
# a basis of two primes.
DISTINCT_CLASSES = raw_model((1, 2), (4, 6), (3, 3), (9, 2))
BINARY_35 = SignalModel.binary(Fraction(3, 5))


class TestSummationOrder:
    """The belief error's terms, summed in the order of their shared factors."""

    @settings(max_examples=60, deadline=None)
    @given(model=rational_models())
    @example(model=DISTINCT_CLASSES)
    @example(model=raw_model((2, 6), (4, 6), (6, 2), (9, 4)))
    def test_the_basis_is_coprime_and_rebuilds_each_odds(self, model):
        basis, rows = odds_basis(model)
        assert all(p > 1 for p in basis)
        assert all(math.gcd(p, q) == 1 for p, q in itertools.combinations(basis, 2))
        for (a0, a1), row in zip(reduced_odds(model), rows, strict=True):
            odds = math.prod(Fraction(p) ** e for p, e in zip(basis, row, strict=True))
            assert odds == Fraction(a1, a0)

    @pytest.mark.parametrize(
        "model, n",
        [(BINARY_23, 9), (BINARY_35, 8), (raw_model((1, 2), (2, 1), (2, 8), (8, 2), (3, 3)), 8)],
        ids=["binary(2/3)", "binary(3/5)", "ratios 2, 1/2, 4, 1/4, 1"],
    )
    def test_a_key_is_its_class_up_to_the_mirror(self, model, n):
        """``y`` and ``g`` rebuild the class's odds or their inverse, and a
        class and its mirror (o1, o0), where both occur, get one key."""
        basis, _rows = odds_basis(model)
        _denominator, classes, firsts = likelihood_classes(model, n)
        keys = dict(zip(classes, _summation_keys(model, firsts), strict=True))
        for (o0, o1), (y, _two_adic, g) in keys.items():
            odds = math.prod(Fraction(p) ** (g * e) for p, e in zip(basis, y))
            assert Fraction(o1, o0) in (odds, 1 / odds)
            assert next((e for e in y if e), 1) > 0
        mirrored = [(o0, o1) for o0, o1 in classes if (o1, o0) in classes]
        assert len(mirrored) > 1
        assert all(keys[o0, o1] == keys[o1, o0] for o0, o1 in mirrored)

    @settings(max_examples=60, deadline=None)
    @given(
        denominator=st.integers(1, 2**64),
        terms=st.dictionaries(
            st.integers(1, 2**80), st.integers(0, 2**100), min_size=1, max_size=12
        ),
        data=st.data(),
    )
    def test_the_exact_sum_is_one_fraction_in_any_order(self, denominator, terms, data):
        shuffled = dict(data.draw(st.permutations(list(terms.items()))))
        exact = sum(Fraction(num, d) for d, num in terms.items()) / denominator
        assert _exact_msbe(denominator, shuffled) == _exact_msbe(denominator, terms) == exact

    @pytest.mark.parametrize(
        "model, n_values",
        [(DISTINCT_CLASSES, range(1, 13)), (BINARY_35, range(1, 41))],
        ids=["four symbols", "binary(3/5)"],
    )
    def test_the_summary_is_the_per_row_reference(self, model, n_values):
        for n in n_values:
            assert exact_pooled_summary(model, n) == reference_pooled_summary(model, n), n


# The smallest ternary agent count whose law fills a block and spills
# into the next, runs of the last two symbols crossing the boundary.
TERNARY_PAST_A_BLOCK = next(n for n in itertools.count() if (n + 1) * (n + 2) // 2 > BLOCK_ROWS)


class TestCountLawBlocks:
    """``count_law``'s blocks against the per-row reference law."""

    @settings(max_examples=40, deadline=None)
    @given(law=colliding_laws())
    @example(law=(BINARY_23, 0))
    @example(law=(BINARY_23, BLOCK_ROWS - 2))
    @example(law=(BINARY_23, BLOCK_ROWS - 1))
    @example(law=(BINARY_23, BLOCK_ROWS))
    @example(law=(BINARY_23, 3 * BLOCK_ROWS + 5))
    @example(law=(raw_model((1, 2), (1, 1), (2, 1)), TERNARY_PAST_A_BLOCK))
    def test_blocks_are_the_per_row_law(self, law):
        """Binary at n = BLOCK_ROWS - 2 .. BLOCK_ROWS has one block less one
        row, one block and one block plus one row; at 3 * BLOCK_ROWS + 5 its
        one run of the last two symbols spans four blocks."""
        model, n = law
        denominator, blocks = count_law(model, n)
        blocks = list(blocks)
        want_denominator, want_rows = reference_count_law(model, n)
        assert denominator == want_denominator
        assert law_rows(blocks) == list(want_rows)
        sizes = [len(counts) for counts, _, _ in blocks]
        assert sizes[:-1] == [BLOCK_ROWS] * (len(sizes) - 1) and 1 <= sizes[-1] <= BLOCK_ROWS
        for counts, w0, w1 in blocks:
            assert counts.dtype == np.int64 and counts.shape[1] == len(model.support)
            assert len(w0) == len(w1) == len(counts)

    def test_a_long_run_is_held_a_block_at_a_time(self):
        """Binary at n = 8 * BLOCK_ROWS is one run of the last two symbols.
        Beyond the classes it returns, ``likelihood_classes`` holds at most
        two blocks of masses at once (the one it reads and the one being
        built), two a row, each below den**n = 3**n; with the run left in
        one block it held over three times that bound."""
        n = 8 * BLOCK_ROWS
        mass_bytes = sys.getsizeof(3**n)
        tracemalloc.start()
        try:
            classes = likelihood_classes(BINARY_23, n)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(classes[1]) == n + 1
        assert peak - current < 4 * BLOCK_ROWS * mass_bytes


N_MATRIX = (*range(1, 61), 200, 400)
# The exact msbe sums one Fraction per likelihood class, so a model whose
# classes are its count vectors is checked only where that sum is cheap:
# the skewed model's took 32 s at n = 200, and geometric_tail_model(K) has
# 2K symbols, so C(n + 2K - 1, 2K - 1) count vectors; each K stops at
# 3,003 or fewer.
CERTIFIED_CASES = {
    "binary(3/5)": (SignalModel.binary(Fraction(3, 5)), N_MATRIX),
    "binary(2/3)": (BINARY_23, N_MATRIX),
    "ternary": (
        SignalModel(
            (0, 1, 2),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        ),
        N_MATRIX,
    ),
    "skewed": (
        SignalModel(
            ("a", "b", "c"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 4), Fraction(7, 12)),
        ),
        range(1, 61),
    ),
    **{
        f"geometric_tail({depth})": (
            geometric_tail_model(depth, Fraction(7, 10)),
            range(1, top + 1),
        )
        for depth, top in ((3, 10), (4, 6), (5, 5), (6, 4), (7, 4), (8, 3))
    },
}


class TestCertifiedMsbe:
    """The belief error as a certified float, against the exact Fraction."""

    @pytest.mark.parametrize("case", list(CERTIFIED_CASES))
    def test_equals_the_exact_msbe_as_a_float(self, case):
        model, n_values = CERTIFIED_CASES[case]
        for n in n_values:
            denominator, classes, _firsts = likelihood_classes(model, n)
            certified = certified_msbe(denominator, belief_error_terms(classes))
            assert certified == float(exact_pooled_summary(model, n).msbe), n

    @settings(max_examples=200, deadline=None)
    @given(
        denominator=st.integers(1, 2**300),
        terms=st.dictionaries(st.integers(1, 2**300), st.integers(0, 2**400), min_size=1),
    )
    def test_any_terms_round_as_their_exact_sum(self, denominator, terms):
        exact = sum(Fraction(num, d) for d, num in terms.items()) / denominator
        assert certified_msbe(denominator, terms) == float(exact)

    @pytest.mark.parametrize(
        "terms, rounded",
        [
            # 1 + 2^-53, halfway between 1 and 1 + 2^-52: down to the even 1
            ({2**53: 2**53 + 1}, 1.0),
            # 1/3 + (2^54 + 9) / (3 * 2^53) = 1 + 3 * 2^-53, halfway between
            # 1 + 2^-52 and 1 + 2^-51, neither floor exact: up to the even one
            ({3: 1, 3 * 2**53: 2**54 + 9}, 1 + 2**-51),
        ],
        ids=["down", "up"],
    )
    def test_a_rounding_midpoint_takes_the_exact_sum(self, monkeypatch, terms, rounded):
        """The bracket's ends round apart, to either side of the midpoint,
        so neither end alone is the rounded sum: the exact sum decides."""
        exact_sums = []
        exact_msbe = bounds._exact_msbe

        def counted(denominator, terms):
            exact_sums.append(terms)
            return exact_msbe(denominator, terms)

        monkeypatch.setattr(bounds, "_exact_msbe", counted)
        assert certified_msbe(1, terms) == rounded
        assert exact_sums == [terms]


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

    @pytest.mark.parametrize("points", [True, 2.5, MAX_EPS_GRID_POINTS + 1])
    def test_refuses_a_point_count_that_is_not_whole_or_over_the_cap(self, points):
        """A boolean counted as one point and 2.5 raised ``TypeError``;
        with no cap, 10^6 points took 1.6 s and 130 MB in ``bound``."""
        with pytest.raises(ValueError, match="grid point count must be an integer|at most 65536"):
            default_eps_grid(1e-6, 0.5, points)

    def test_the_cap_is_the_last_size_built(self):
        assert MAX_EPS_GRID_POINTS == 2**16
        assert len(default_eps_grid(1e-6, 0.5, MAX_EPS_GRID_POINTS)) == MAX_EPS_GRID_POINTS
