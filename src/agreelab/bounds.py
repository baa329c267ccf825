"""Estimators and quantitative learning bounds for aggregated signals.

Everything here is a pure function of a signal model and an agent count: the
normalized mean-log-likelihood estimator of the state, the variance and
action bounds it implies, the low-belief fraction statistic with its tail
bound, a conditional version of Chebyshev's inequality, and the exact law of
the symbol counts (:func:`count_law`).  The estimator's moments read its rows;
the pooled action's law reads them summed per likelihood class
(:func:`likelihood_classes`), since a count vector's action and belief depend
on it only through its likelihood ratio.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    BoundedBeliefsError,
    EnumerationBudgetError,
    NonInformativeModelError,
    NullConditioningError,
)
from .signals import SignalModel, llr_conditional_moments, log_likelihood_ratio

#: Exact engine refusal threshold on the number of (state, profile) pairs.
#: At 2**22 pairs (iid_binary(21)) the slowest protocol's ``simulate`` took
#: 24 s and 1.7 GB on a 2-core Xeon VM; one more agent doubles both.
DEFAULT_ENUMERATION_BUDGET = 2**22


@dataclass(frozen=True)
class BoundReport:
    """Variance and action bounds for n agents at noise-to-signal ratio d.

    ``action_bound`` may be non-positive for small n; it is reported raw and
    callers mark such rows vacuous instead of clamping.
    """

    n: int
    d: float
    var_bound: float
    action_bound: float


def learning_bounds(n: int, d: float) -> BoundReport:
    """var_bound = d/(n+d) and action_bound = 1 - 4d/(n+d)."""
    if n < 1:
        raise ValueError("agent count must be at least 1")
    if d <= 0:
        raise ValueError("noise-to-signal ratio must be positive")
    var_bound = d / (n + d)
    return BoundReport(n=n, d=d, var_bound=var_bound, action_bound=1.0 - 4.0 * var_bound)


def estimator_y(model: SignalModel, llrs: Sequence[float]) -> float:
    """Average of per-agent standardized log-likelihood ratios.

    Each term maps E[z|S=0] to 0 and E[z|S=1] to 1, so the estimator is
    unbiased for the state by construction.
    """
    m0, m1, _, _ = llr_conditional_moments(model)
    gap = m1 - m0
    if gap == 0:
        raise NonInformativeModelError("equal conditional means; estimator undefined")
    return sum((z - m0) / gap for z in llrs) / len(llrs)


def k_statistic(beliefs: Sequence, eps) -> float:
    """Fraction of agents whose private belief lies strictly below eps."""
    if len(beliefs) < 1:
        raise ValueError("need at least one belief")
    return sum(1 for b in beliefs if b < eps) / len(beliefs)


def default_eps_grid(lo: float = 1e-6, hi: float = 0.5, points: int = 512) -> tuple[float, ...]:
    """Log-spaced thresholds in (lo, hi]."""
    if not (0 < lo < hi < 1):
        raise ValueError("grid endpoints must satisfy 0 < lo < hi < 1")
    if points < 1:
        raise ValueError("grid needs at least one point")
    if points == 1:
        return (lo,)
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return tuple(math.exp(math.log(lo) + i * step) for i in range(points))


def qn_bound(
    n: int,
    cdf_given_s0: Callable[[float], object],
    eps_grid: Iterable[float] | None = None,
) -> float:
    """min over grid eps of max{ 2 eps / (1 - eps), 4 / (n P(B < eps | S=0)) }.

    When the conditional lower tail vanishes on the whole grid the hypothesis
    of the learning theorem fails and :class:`BoundedBeliefsError` is raised.
    """
    if n < 1:
        raise ValueError("agent count must be at least 1")
    grid = tuple(eps_grid) if eps_grid is not None else default_eps_grid()
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    best = None
    for eps in grid:
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


def conditional_expectation_interval(
    mean: float, variance: float, p_event: float
) -> tuple[float, float]:
    """Interval guaranteed to contain E[Z | A] from unconditional moments.

    [mean - sqrt(variance / P(A)), mean + sqrt(variance / P(A))], the
    Cauchy-Schwarz consequence for conditioning on an event of probability
    P(A) > 0.
    """
    if variance < 0:
        raise ValueError("variance must be non-negative")
    if p_event == 0:
        raise NullConditioningError("cannot condition on a zero-probability event")
    if not 0 < p_event <= 1:
        raise ValueError("event probability must lie in (0, 1]")
    radius = math.sqrt(variance / p_event)
    return mean - radius, mean + radius


@dataclass(frozen=True)
class EstimatorMoments:
    """Moments of the state estimator for n conditionally i.i.d. signals."""

    n: int
    mean: float
    var_y_minus_s: float
    cov_s_y: float
    var_y: float


def _standardized_terms(model: SignalModel) -> dict:
    m0, m1, _, _ = llr_conditional_moments(model)
    gap = m1 - m0
    if gap == 0:
        raise NonInformativeModelError("equal conditional means; estimator undefined")
    return {
        symbol: (log_likelihood_ratio(model, symbol) - m0) / gap
        for symbol in model.support
    }


def _moments(n: int, points: Iterable[tuple[float, int, float]]) -> EstimatorMoments:
    """Estimator moments from (probability, state, Y) points of the law."""
    e_y = e_y2 = e_sy = e_dev2 = 0.0
    for wf, state, y in points:
        e_y += wf * y
        e_y2 += wf * y * y
        e_sy += wf * state * y
        e_dev2 += wf * (y - state) ** 2
    var_y = e_y2 - e_y * e_y
    cov = e_sy - 0.5 * e_y
    return EstimatorMoments(
        n=n, mean=e_y, var_y_minus_s=e_dev2 - (e_y - 0.5) ** 2, cov_s_y=cov, var_y=var_y
    )


def estimator_moments_enumerated(model: SignalModel, n: int) -> EstimatorMoments:
    """Estimator moments by brute-force enumeration of all signal profiles.

    Weights are integer numerators over ``2 * den**n``, divided as Python
    ints (correctly rounded); values are floats.  Independent of the
    count-vector route, so the two can be compared as a check.
    """
    size = 2 * len(model.support) ** n
    if size > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(f"enumeration of {size} outcomes is too large; use counts")
    terms = _standardized_terms(model)
    den, pairs = integer_weights(model)
    total = 2 * den**n
    symbols = list(zip(model.support, pairs))

    def points():
        for state in (0, 1):
            for profile in itertools.product(symbols, repeat=n):
                w = math.prod(pair[state] for _, pair in profile)
                yield w / total, state, sum(terms[s] for s, _ in profile) / n

    return _moments(n, points())


def integer_weights(model: SignalModel) -> tuple[int, list[tuple[int, int]]]:
    """``(den, [(a0, a1) per support symbol])`` with ``mu_s = a_s / den`` and
    ``den`` the lcm of the weights' denominators."""
    pairs = [(w0, w1) for w0, w1 in zip(model.mu0, model.mu1) if w0]
    den = math.lcm(*(w.denominator for pair in pairs for w in pair))
    return den, [tuple(w.numerator * (den // w.denominator) for w in pair) for pair in pairs]


def count_law(model: SignalModel, n: int) -> tuple[int, Iterator[tuple]]:
    """Exact joint law of the state and the symbol counts of n i.i.d. signals.

    Returns ``(denominator, rows)``.  ``rows`` yields ``(counts, w0, w1)``
    for every vector of counts over ``model.support``, in lexicographic
    order; ``w_s`` is the integer mass of (counts, S=s) over
    ``denominator = 2 * den**n``.  The posterior of a count vector is
    ``Fraction(w1, w0 + w1)``, a tie iff ``w0 == w1``.  Rows are generated
    depth first, each prefix of counts carrying its multinomial factor and
    its two mass products down to the rows below it.
    """
    den, pairs = integer_weights(model)
    powers = [[[a**c for c in range(n + 1)] for a in pair] for pair in pairs]
    last = len(pairs) - 1

    def rows(i, left, prefix, w0, w1):
        p0, p1 = powers[i]
        if i == last:
            yield prefix + (left,), w0 * p0[left], w1 * p1[left]
            return
        for c in range(left + 1):
            comb = math.comb(left, c)
            yield from rows(i + 1, left - c, prefix + (c,), w0 * comb * p0[c], w1 * comb * p1[c])

    return 2 * den**n, rows(0, n, (), 1, 1)


def likelihood_classes(model: SignalModel, n: int) -> tuple[int, dict[tuple[int, int], int]]:
    """:func:`count_law`'s rows summed per likelihood class.

    Returns ``(denominator, {(o0, o1): K})``.  A row's class is its
    likelihood ratio ``w1/w0`` in lowest terms ``o1/o0``, so the row's masses
    are ``w_s = k * o_s`` with ``k = gcd(w0, w1)``; ``K`` sums the rows'
    ``k``.  A row's pooled action and belief depend on it only through its
    class.
    """
    denominator, rows = count_law(model, n)
    classes: dict[tuple[int, int], int] = {}
    for _counts, w0, w1 in rows:
        k = math.gcd(w0, w1)
        key = (w0 // k, w1 // k)
        classes[key] = classes.get(key, 0) + k
    return denominator, classes


def pooled_action_law(denominator: int, classes: dict) -> tuple[Fraction, Fraction, Fraction]:
    """``(success, tie, failure)`` of the pooled action from
    :func:`likelihood_classes`: each class is right on its heavier state's
    mass, wrong on the lighter one and a tie when the two are equal."""
    success = tie = failure = 0
    for (o0, o1), k in classes.items():
        if o0 == o1:
            tie += k * (o0 + o1)
        else:
            success += k * max(o0, o1)
            failure += k * min(o0, o1)
    return tuple(Fraction(t, denominator) for t in (success, tie, failure))


def reduced_odds(model: SignalModel) -> list[tuple[int, int]]:
    """Each support symbol's ``(a0, a1)`` of :func:`integer_weights` over
    their gcd: the symbol's likelihood ratio ``a1/a0`` in lowest terms."""
    return [
        (a0 // g, a1 // g)
        for a0, a1 in integer_weights(model)[1]
        for g in (math.gcd(a0, a1),)
    ]


def odds_posterior(odds: Sequence[tuple[int, int]], counts: Sequence[int]) -> Fraction:
    """:func:`count_posterior` from the model's :func:`reduced_odds`, for
    callers that decide many count vectors of one model."""
    o0 = o1 = 1
    for (a0, a1), c in zip(odds, counts):
        o0 *= a0 ** int(c)
        o1 *= a1 ** int(c)
    return Fraction(o1, o0 + o1)


def count_posterior(model: SignalModel, counts: Sequence[int]) -> Fraction:
    """P(S=1 | symbol counts over ``model.support``): ``Fraction(w1, w0 + w1)``
    of :func:`count_law`, less the factors the two masses share (each
    symbol's ``gcd(a0, a1)**c`` too), so it stays cheap at any count."""
    return odds_posterior(reduced_odds(model), counts)


@dataclass(frozen=True)
class ExactSummary:
    """Exact outcome law of a fixed-point action, no sampling involved."""

    success: Fraction
    tie: Fraction
    failure: Fraction
    msbe: Fraction

    @property
    def not_learned(self) -> Fraction:
        """Probability that the action set is not {S}, ties included."""
        return self.tie + self.failure


def exact_pooled_summary(model: SignalModel, n: int) -> ExactSummary:
    """Exact law of the pooled-posterior action for n i.i.d. signals.

    The law is decided once per likelihood class (:func:`likelihood_classes`),
    not per count vector; :func:`pooled_action_law` gives the action's law.
    With x = w1 / (w0 + w1), a row's belief error (x - S)^2 weighs
    w0 x^2 + w1 (1 - x)^2 = w0 w1 / (w0 + w1), which is k o0 o1 / (o0 + o1)
    on its class; classes are summed over each denominator o0 + o1 first.
    """
    denominator, classes = likelihood_classes(model, n)
    success, tie, failure = pooled_action_law(denominator, classes)
    by_sum: dict[int, int] = {}
    for (o0, o1), k in classes.items():
        by_sum[o0 + o1] = by_sum.get(o0 + o1, 0) + k * o0 * o1
    errors = [Fraction(num, d) for d, num in by_sum.items()]
    # Pairwise summation keeps the partial sums' denominators, and so their
    # gcds, small; a running sum would carry the full lcm through every step.
    while len(errors) > 1:
        errors = [sum(errors[i : i + 2]) for i in range(0, len(errors), 2)]
    return ExactSummary(success=success, tie=tie, failure=failure, msbe=errors[0] / denominator)


def estimator_moments_by_counts(model: SignalModel, n: int) -> EstimatorMoments:
    """Estimator moments via the multinomial distribution of symbol counts.

    Reaches the agent counts the enumeration route cannot.  Each mass is an
    integer ratio, whose true division is correctly rounded.
    """
    terms = _standardized_terms(model)
    values = [terms[s] for s in model.support]
    denominator, rows = count_law(model, n)

    def points():
        for counts, w0, w1 in rows:
            y = sum(c * v for c, v in zip(counts, values)) / n
            yield w0 / denominator, 0, y
            yield w1 / denominator, 1, y

    return _moments(n, points())
