"""Estimators and quantitative learning bounds for aggregated signals.

Everything here is a pure function of a signal model and an agent count: the
normalized mean-log-likelihood estimator of the state, the variance and
action bounds it implies, the low-belief fraction statistic with its tail
bound, a conditional version of Chebyshev's inequality, and the exact law of
the symbol counts (:func:`count_law`), in blocks; the estimator's moments read
them as arrays, the pooled action's law their masses summed per likelihood class
(:func:`likelihood_classes`), since a count vector's action and belief depend
on it only through its likelihood ratio.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    BoundedBeliefsError,
    EnumerationBudgetError,
    NonInformativeModelError,
    NullConditioningError,
)
from .signals import SignalModel, llr_conditional_moments, log_likelihood_ratio

#: Exact engine refusal threshold on the number of (state, profile) pairs.
#: At 2**22 pairs the costliest ``simulate`` enumerates: parity(22)
#: public-statistic took 9.3 s and 1,658 MB on a 2-core Xeon VM; one more
#: agent about doubles both.
DEFAULT_ENUMERATION_BUDGET = 2**22

#: Rows in a :func:`count_law` block (profiles in an enumerated one).  Ternary n = 150 moments
#: took 17.6 ms at 256 rows, 14.6-15.6 ms at 512-4,096; ``exact_laws`` peak RSS rose 0.1-0.2 MB
#: at 512 and 0.3 MB at 1,024 over the per-row law (2-core Xeon VM; README has the table).
BLOCK_ROWS = 512

#: Most points :func:`default_eps_grid` builds; ``bound`` took 0.10 s at 2**16, 1.6 s at 10**6.
MAX_EPS_GRID_POINTS = 2**16


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


def _agent_count(n, least: int = 1, what: str = "agent count"):
    """``n``, refused unless it is an integer (numpy's included) of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < least:
        raise ValueError(f"{what} must be an integer of at least {least}, got {n!r}")
    return n


def learning_bounds(n: int, d: float) -> BoundReport:
    """var_bound = d/(n+d) and action_bound = 1 - 4d/(n+d)."""
    _agent_count(n)
    if not 0 < d < math.inf:
        raise ValueError("noise-to-signal ratio must be positive and finite")
    var_bound = d / (n + d)
    return BoundReport(n=n, d=d, var_bound=var_bound, action_bound=1.0 - 4.0 * var_bound)


def estimator_y(model: SignalModel, llrs: Sequence[float]) -> float:
    """Average of per-agent standardized log-likelihood ratios.

    Each term maps E[z|S=0] to 0 and E[z|S=1] to 1, so the estimator is
    unbiased for the state.  Terms add left to right, unlike ``sum`` on 3.12+.
    """
    if len(llrs) < 1 or not all(map(math.isfinite, llrs)):
        raise ValueError("need at least one log-likelihood ratio, each finite")
    m0, m1, _, _ = llr_conditional_moments(model)
    gap = m1 - m0
    if gap == 0:
        raise NonInformativeModelError("equal conditional means; estimator undefined")
    return float(np.cumsum([0.0, *((z - m0) / gap for z in llrs)])[-1]) / len(llrs)


def k_statistic(beliefs: Sequence, eps) -> float:
    """Fraction of agents whose private belief lies strictly below eps."""
    if len(beliefs) < 1 or math.isnan(eps) or any(math.isnan(b) for b in beliefs):
        raise ValueError("need at least one belief, and beliefs and a threshold that are numbers")
    return sum(1 for b in beliefs if b < eps) / len(beliefs)


def default_eps_grid(lo: float = 1e-6, hi: float = 0.5, points: int = 512) -> tuple[float, ...]:
    """Log-spaced thresholds in (lo, hi], from 1 to :data:`MAX_EPS_GRID_POINTS` of them."""
    if not (0 < lo < hi < 1):
        raise ValueError("grid endpoints must satisfy 0 < lo < hi < 1")
    if _agent_count(points, what="grid point count") > MAX_EPS_GRID_POINTS:
        raise ValueError(f"grid needs at most {MAX_EPS_GRID_POINTS} points, got {points}")
    if points == 1:
        return (lo,)
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return tuple(math.exp(math.log(lo) + i * step) for i in range(points))


#: :func:`default_eps_grid` at its defaults, built once: the grid
#: :func:`qn_bound` searches when it is given none.
DEFAULT_EPS_GRID = default_eps_grid()


def qn_bound(
    n: int,
    cdf_given_s0: Callable[[float], object],
    eps_grid: Iterable[float] | None = None,
) -> float:
    """min over grid eps of max{ 2 eps / (1 - eps), 4 / (n P(B < eps | S=0)) }:
    :func:`qn_bounds` at the one agent count ``n``."""
    return qn_bounds((n,), cdf_given_s0, eps_grid)[0]


def qn_bounds(
    n_values: Iterable[int],
    cdf_given_s0: Callable[[float], object],
    eps_grid: Iterable[float] | None = None,
) -> list[float]:
    """:func:`qn_bound` at each agent count of ``n_values``, reading the grid once.

    The grid defaults to :data:`DEFAULT_EPS_GRID`.  Each distinct cdf value
    is range-checked and made a float once; each n takes one ``maximum`` and
    ``min`` over the points of positive tail, whose ``4 / (n P)`` is ``+inf``
    below the smallest float.  A tail vanishing on the whole grid fails the
    learning theorem's hypothesis: :class:`BoundedBeliefsError`.
    """
    n_values = [_agent_count(n) for n in n_values]
    grid = DEFAULT_EPS_GRID if eps_grid is None else tuple(eps_grid)
    if not grid:
        raise ValueError("threshold grid must be non-empty")
    kept, last, p = [], object(), None
    for eps in grid:
        if not 0 < eps < 1:
            raise ValueError("thresholds must lie in (0, 1)")
        tail = cdf_given_s0(eps)
        if tail is not last:
            if not 0 <= tail <= 1:
                raise ValueError("cdf values must lie in [0, 1]")
            last, p = tail, None if tail == 0 else float(tail)
        if p is not None:
            kept.append((eps, p))
    if not kept:
        raise BoundedBeliefsError("no grid point has a positive conditional lower tail")
    eps, tails = np.array(kept, dtype=float).T
    edge = 2.0 * eps / (1.0 - eps)
    with np.errstate(divide="ignore", over="ignore"):
        return [float(np.maximum(edge, 4.0 / (float(n) * tails)).min()) for n in n_values]


def conditional_expectation_interval(
    mean: float, variance: float, p_event: float
) -> tuple[float, float]:
    """Interval guaranteed to contain E[Z | A] from unconditional moments.

    [mean - sqrt(variance / P(A)), mean + sqrt(variance / P(A))], the
    Cauchy-Schwarz consequence for conditioning on an event of probability
    P(A) > 0.
    """
    if not math.isfinite(mean) or not 0 <= variance < math.inf:
        raise ValueError("mean and variance must be finite and variance non-negative")
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


def _moments(n: int, blocks: Iterable[tuple[np.ndarray, ...]]) -> EstimatorMoments:
    """Estimator moments from blocks of (probability, state, Y) arrays over the
    law's points.  ``np.cumsum`` adds left to right, carried across blocks,
    so each float is the one of adding the points one by one.  Squares are
    ``d * d``, correctly rounded, not the C library's ``pow``."""
    sums = np.zeros((4, 1))
    for wf, state, y in blocks:
        wy, dev = wf * y, y - state
        terms = np.vstack((wy, wy * y, wf * state * y, wf * (dev * dev)))
        sums = np.cumsum(np.hstack((sums, terms)), axis=1)[:, -1:]
    e_y, e_y2, e_sy, e_d2 = sums[:, 0].tolist()
    bias = e_y - 0.5
    return EstimatorMoments(n, e_y, e_d2 - bias * bias, e_sy - 0.5 * e_y, e_y2 - e_y * e_y)


def estimator_moments_enumerated(model: SignalModel, n: int) -> EstimatorMoments:
    """Estimator moments by brute-force enumeration of all signal profiles.

    Each block of :data:`BLOCK_ROWS` profiles is a set of symbol-index
    columns, unravelled from the profiles' flat indices in
    ``itertools.product`` order.  Weights are products of integer masses
    (object arrays, so exact) over ``2 * den**n``, divided as Python ints
    (correctly rounded); Y adds its columns left to right from 0.0.
    Independent of the count-vector route, so the two check each other.
    """
    _agent_count(n)
    k = len(model.support)
    profiles = k**n
    if 2 * profiles > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration of {2 * profiles} outcomes is too large; use counts"
        )
    values = np.array(list(_standardized_terms(model).values()))
    den, pairs = integer_weights(model)
    total = 2 * den**n
    masses = np.array(pairs, dtype=object)

    def blocks():
        for state in (0, 1):
            for start in range(0, profiles, BLOCK_ROWS):
                flat = np.arange(start, min(start + BLOCK_ROWS, profiles))
                columns = np.unravel_index(flat, (k,) * n)
                w, y = 1, 0.0
                for column in columns:
                    w, y = w * masses[column, state], y + values[column]
                yield (w / total).astype(float), np.full(len(flat), float(state)), y / n

    return _moments(n, blocks())


def integer_weights(model: SignalModel) -> tuple[int, list[tuple[int, int]]]:
    """``(den, [(a0, a1) per support symbol])`` with ``mu_s = a_s / den`` and
    ``den`` the lcm of the weights' denominators."""
    pairs = [(w0, w1) for w0, w1 in zip(model.mu0, model.mu1) if w0]
    den = math.lcm(*(w.denominator for pair in pairs for w in pair))
    return den, [tuple(w.numerator * (den // w.denominator) for w in pair) for pair in pairs]


def count_law(model: SignalModel, n: int) -> tuple[int, Iterator[tuple]]:
    """Exact joint law of the state and the symbol counts of n i.i.d. signals.

    Returns ``(denominator, blocks)``, each block ``(counts, w0, w1)`` for up
    to :data:`BLOCK_ROWS` count vectors over ``model.support``: an ``int64``
    row each, in lexicographic order across the blocks, and lists of their
    integer masses, ``w_s`` that of (counts, S=s) over ``2 * den**n``.  The
    posterior of a count vector is ``Fraction(w1, w0 + w1)``, a tie iff ``w0 == w1``.
    Rows are generated depth first, each prefix carrying its two masses down,
    the last two symbols in one loop, cut where a block fills; from count ``c``
    to ``c + 1`` of a symbol of weight ``r_s``, ``l`` agents left, a mass steps
    exactly to ``w (l - c) r_s // (c + 1)``.  At n = 0 the one row is the empty profile's.
    """
    _agent_count(n, 0)
    den, pairs = integer_weights(model)
    head = len(pairs) - 2
    (a0, a1), (b0, b1) = pairs[head:]
    step = np.array([0] * head + [1, -1])

    def prefixes(i, left, prefix, w0, w1):
        if i == head:
            yield prefix, left, w0, w1
            return
        r0, r1 = pairs[i]
        for c in range(left + 1):
            yield from prefixes(i + 1, left - c, prefix + (c,), w0, w1)
            w0, w1 = w0 * (left - c) * r0 // (c + 1), w1 * (left - c) * r1 // (c + 1)

    def counts(runs):
        """Each ``(first row, size)`` run's rows: the first, ``step`` added row by row."""
        firsts, sizes = zip(*runs)
        offsets = np.arange(sum(sizes)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        return np.repeat(np.array(firsts, dtype=np.int64), sizes, axis=0) + np.outer(offsets, step)

    def blocks():
        runs, w0s, w1s = [], [], []
        for prefix, left, w0, w1 in prefixes(0, n, (), 1, 1):
            w0, w1 = w0 * b0**left, w1 * b1**left
            stop = 0
            while stop <= left:
                start, stop = stop, min(left + 1, stop + BLOCK_ROWS - len(w0s))
                runs.append((prefix + (start, left - start), stop - start))
                for c in range(start, stop):
                    w0s.append(w0)
                    w1s.append(w1)
                    rest = left - c
                    w0, w1 = w0 * (rest * a0) // ((c + 1) * b0), w1 * (rest * a1) // ((c + 1) * b1)
                if len(w0s) == BLOCK_ROWS:
                    yield counts(runs), w0s, w1s
                    runs, w0s, w1s = [], [], []
        if runs:
            yield counts(runs), w0s, w1s

    return 2 * den**n, blocks()


def likelihood_classes(model: SignalModel, n: int) -> tuple[int, dict[tuple[int, int], int], list]:
    """:func:`count_law`'s rows summed per likelihood class.

    Returns ``(denominator, {(o0, o1): K}, firsts)``.  A row's class is its
    likelihood ratio ``w1/w0`` in lowest terms ``o1/o0``, so the row's masses
    are ``w_s = k * o_s`` with ``k = gcd(w0, w1)``; ``K`` sums the rows' ``k``.
    ``firsts`` holds each class's first count row, in the classes' order.  A
    row's pooled action and belief depend on it only through its class.
    """
    denominator, blocks = count_law(model, n)
    classes, firsts = {}, []
    for counts, w0s, w1s in blocks:
        for row, w0, w1 in zip(counts.tolist(), w0s, w1s):
            k = math.gcd(w0, w1)
            key = (w0 // k, w1 // k)
            total = classes.get(key, 0)
            if not total:
                firsts.append(row)
            classes[key] = total + k
    return denominator, classes, firsts


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
    pairs = integer_weights(model)[1]
    return [(a0 // math.gcd(a0, a1), a1 // math.gcd(a0, a1)) for a0, a1 in pairs]


def odds_basis(model: SignalModel) -> tuple[list[int], list[list[int]]]:
    """``(basis, E)``: pairwise coprime integers above 1 whose powers make up each
    :func:`reduced_odds` integer, and each symbol's ``a1/a0`` as exponents over them.
    Gcds alone build it: two members that share ``g`` become ``g`` and their quotients."""
    odds = reduced_odds(model)
    basis, todo = [], [a for pair in odds for a in pair]
    while todo:
        a = todo.pop()
        b = next((b for b in basis if math.gcd(a, b) > 1), None)
        if b:
            g = math.gcd(a, b)
            basis.remove(b)
            todo += (g, a // g, b // g)
        elif a > 1:
            basis.append(a)

    def exponent(a, p):
        return next(e for e in range(a.bit_length()) if a % p ** (e + 1))

    return basis, [[exponent(a1, p) - exponent(a0, p) for p in basis] for a0, a1 in odds]


def count_rows(model: SignalModel, counts) -> np.ndarray:
    """``counts`` as an ``int64`` array of rows, each one count per symbol of
    ``model.support``; ``ValueError`` unless it is two-dimensional, of that
    width, non-negative, whole, below 2**63 and made of numbers, none boolean.
    Only a list or an object array is looked at item by item: numpy casts a
    boolean among integers to 0 or 1, and any other array's dtype tells."""
    rows = np.asarray(counts)
    k = len(model.support)
    if not isinstance(counts, np.ndarray) or rows.dtype.kind == "O":
        items = np.asarray(counts, dtype=object).flat
        if not all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items):
            raise ValueError("counts must be real numbers, not booleans")
    if rows.ndim != 2 or rows.shape[1] != k or rows.dtype.kind not in "iufO" or (rows < 0).any():
        raise ValueError(f"need {k} non-negative counts, one per support symbol")
    if rows.dtype.kind != "i" and ((rows % 1 != 0).any() or (rows >= 2**63).any()):
        raise ValueError("counts must be whole numbers below 2**63")
    return rows.astype(np.int64, copy=False)


def count_odds(model: SignalModel, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(o0, o1)`` per row of ``counts`` (:func:`count_rows`): the products
    of the symbols' :func:`reduced_odds` raised to their counts, as Python
    ints in object arrays.

    A row's posterior is ``o1 / (o0 + o1)``, the rational of
    :func:`count_law`'s ``w1 / (w0 + w1)`` less the factors the two masses
    share (the multinomial coefficient and each symbol's ``gcd(a0, a1)**c``),
    so it stays cheap at large counts; the row is a tie iff ``o0 == o1``.
    """
    powers = count_rows(model, counts).astype(object)
    odds = zip(*reduced_odds(model))
    return tuple(np.prod(np.array(a, dtype=object) ** powers, axis=1) for a in odds)


def count_posterior(model: SignalModel, counts: Sequence[int]) -> Fraction:
    """P(S=1 | symbol counts over ``model.support``): one row of
    :func:`count_odds`, ``Fraction(o1, o0 + o1)``."""
    (o0,), (o1,) = count_odds(model, [counts])
    return Fraction(o1, o0 + o1)


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


def belief_error_terms(classes: dict) -> dict[int, int]:
    """The pooled belief error's terms from :func:`likelihood_classes`:
    ``{d: num}`` with E[(X - S)^2] = sum(num / d) / ``denominator``.

    With x = w1 / (w0 + w1), a row's error (x - S)^2 weighs
    w0 x^2 + w1 (1 - x)^2 = w0 w1 / (w0 + w1), which is k o0 o1 / (o0 + o1)
    on its class; classes are summed over each denominator d = o0 + o1.
    """
    terms: dict[int, int] = {}
    for (o0, o1), k in classes.items():
        terms[o0 + o1] = terms.get(o0 + o1, 0) + k * o0 * o1
    return terms


def _exact_msbe(denominator: int, terms: dict[int, int]) -> Fraction:
    """sum(num / d) / ``denominator`` over :func:`belief_error_terms`, exact.
    The Fractions are added in pairs, ``a + b``, round after round, which
    keeps the partial sums' denominators small, unlike a running sum's lcm."""
    errors = [Fraction(num, d) for d, num in terms.items()]
    while len(errors) > 1:
        odd = errors[-1:] if len(errors) % 2 else []
        errors = [a + b for a, b in zip(errors[::2], errors[1::2])] + odd
    return errors[0] / denominator


def certified_msbe(denominator: int, terms: dict[int, int]) -> float:
    """``float`` of the exact sum(num / d) / ``denominator`` over
    :func:`belief_error_terms`, mostly without building that Fraction.

    Scaled by 2^s, the floors' sum L = sum(num 2^s // d) is short of
    2^s sum(num / d) by less than one per term, so the msbe lies in
    [L, L + len(terms)) / (2^s denominator).  Python-int true division is
    correctly rounded and rounding is monotone, so when both ends round to
    one double, that double is the msbe's.  Otherwise the msbe lies at or
    next to a rounding midpoint and the exact sum decides (Ziv's rounding
    test).  The largest term exceeds 2^(t - 1), t its numerator's bits less
    its denominator's, so s = 65 + bits(len(terms)) - t puts the bracket's
    width below 2^-64 of the msbe.
    """
    top = max(num.bit_length() - d.bit_length() for d, num in terms.items())
    s = max(0, 65 + len(terms).bit_length() - top)
    low = sum((num << s) // d for d, num in terms.items())
    scale = denominator << s
    msbe = low / scale
    if (low + len(terms)) / scale == msbe:
        return msbe
    return float(_exact_msbe(denominator, terms))


def _summation_keys(model: SignalModel, firsts: list) -> Iterator[tuple]:
    """Each class's key ``(y, g & -g, g)`` from its first count row ``c``: over
    :func:`odds_basis` its odds are ``x = c E = g y``, ``g = gcd(x)``, with ``y``'s
    first non-zero entry positive so that a class and its mirror share it.  Its
    term's denominator is ``A**g + B**g``, ``A`` and ``B`` fixed by ``y``."""
    basis, rows = odds_basis(model)
    columns, zero = list(zip(*rows)), [0] * len(basis)
    for c in firsts:
        x = [sum(map(operator.mul, c, column)) for column in columns]
        g = math.gcd(*x)
        h = -g if x < zero else g or 1
        yield [v // h for v in x], g & -g, g


def exact_pooled_summary(model: SignalModel, n: int) -> ExactSummary:
    """Exact law of the pooled-posterior action for n i.i.d. signals.

    The law is decided once per likelihood class (:func:`likelihood_classes`),
    not per count vector; :func:`pooled_action_law` gives the action's law
    and :func:`belief_error_terms` the belief error's terms, summed exactly
    in :func:`_summation_keys` order: ``A**h + B**h`` divides ``A**g + B**g`` when
    ``g / h`` is odd, so terms sharing large factors meet while their sums are small.
    """
    denominator, classes, firsts = likelihood_classes(model, n)
    success, tie, failure = pooled_action_law(denominator, classes)
    order = sorted(zip(_summation_keys(model, firsts), classes.items()), key=operator.itemgetter(0))
    msbe = _exact_msbe(denominator, belief_error_terms(dict(item for _key, item in order)))
    return ExactSummary(success=success, tie=tie, failure=failure, msbe=msbe)


def estimator_moments_by_counts(model: SignalModel, n: int) -> EstimatorMoments:
    """Estimator moments via the multinomial distribution of symbol counts.

    Reaches the agent counts the enumeration route cannot.  Each block of the
    law gives Y, its count columns summed left to right, and its masses as
    object arrays of Python ints, whose true division is correctly rounded.
    """
    _agent_count(n)
    values = list(_standardized_terms(model).values())
    denominator, law = count_law(model, n)

    def blocks():
        for counts, w0, w1 in law:
            y = 0.0
            for column, v in zip(counts.T, values):
                y = y + column * v
            wf = (np.array((w0, w1), dtype=object).T / denominator).astype(float)
            yield wf.ravel(), np.tile((0.0, 1.0), len(y)), np.repeat(y / n, 2)

    return _moments(n, blocks())
