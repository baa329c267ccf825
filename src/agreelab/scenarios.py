"""Constructors for the benchmark scenario families.

A scenario bundles an agent count with a joint signal structure and the
agents' initial information.  Structures expose enumeration for the exact
engine, batch samplers for the Monte Carlo path and, where it exists, the
per-agent marginal signal model used by the aggregate bounds.

Every sampler returns a draw ``draw(rng, size, force_state=None)`` that
makes ``size`` trials with a few vectorised calls.  A pooled draw returns
arrays of states, action codes (:data:`~agreelab.knowledge.ACTION_SETS`)
and float beliefs; a profile draw returns states and indices into the
space's sorted ``profiles``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .bounds import (
    ExactSummary,
    count_posterior,
    likelihood_classes,
    odds_posterior,
    pooled_action_law,
    reduced_odds,
)
from .errors import AgreementLabError, EnumerationBudgetError, ScenarioParameterError
from .knowledge import (
    DEFAULT_ENUMERATION_BUDGET,
    TIE,
    OutcomeSpace,
    Partition,
    action_code,
    action_codes,
    joint_codes,
    own_signal_partitions,
    profile_indexer,
    trivial_partition,
)
from .signals import (
    SignalModel,
    as_weight,
    belief_from_llr,
    log_likelihood_ratio,
)

ZERO_COV_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Scenario:
    """A named joint signal structure for n agents."""

    name: str
    n: int
    structure: object
    metadata: dict = field(default_factory=dict)

    def outcome_space(self) -> OutcomeSpace:
        size = self.structure.pair_count(self.n)
        if size > DEFAULT_ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"{self.name}: {size} (state, profile) pairs exceed the "
                f"exact-engine budget {DEFAULT_ENUMERATION_BUDGET}"
            )
        build = getattr(self.structure, "outcome_space", None)
        if build is not None:
            return build(self.n)
        return OutcomeSpace(self.n, self.structure.weights(self.n))

    def initial_partitions(self, space: OutcomeSpace) -> list[Partition]:
        make = getattr(self.structure, "initial_partitions", None)
        if make is not None:
            return make(space)
        return own_signal_partitions(space)

    @property
    def marginal_model(self) -> SignalModel | None:
        return self.structure.marginal_model(self.n)

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        """Batch draw of (states, indices into ``space.profiles``)."""
        return self.structure.profile_sampler(space)

    def pooled_sampler(self) -> Callable:
        """Batch draw of (states, pooled action codes, pooled beliefs)."""
        return self.structure.pooled_sampler(self.n)


def _draw_states(rng, size: int, force_state) -> np.ndarray:
    """``size`` fair states, or ``force_state`` repeated."""
    if force_state is None:
        return rng.integers(0, 2, size=size)
    return np.full(size, force_state, dtype=np.int64)


def _known_state_draw(rng, size: int, force_state=None):
    """Pooled draw of a structure whose full profile reveals the state."""
    states = _draw_states(rng, size, force_state)
    return states, states.astype(np.int8), states.astype(float)


def _majority_codes(ones, total: int) -> np.ndarray:
    """Action code of a majority vote of ``total`` bits with ``ones`` ones."""
    ones = np.asarray(ones, dtype=np.int64)
    return action_codes(total - ones, ones).astype(np.int8)


def _parity_bits(rng, states: np.ndarray, n: int) -> np.ndarray:
    """Rows of n uniform bits conditioned on their parity being the state."""
    head = rng.integers(0, 2, size=(len(states), n - 1))
    last = (states + head.sum(axis=1)) % 2
    return np.column_stack([head, last])


# ---------------------------------------------------------------------------
# conditionally i.i.d. signals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IidSignals:
    """Signals drawn independently from mu_S, one draw per agent."""

    model: SignalModel

    def pair_count(self, n: int) -> int:
        return 2 * len(self.model.support) ** n

    def outcome_space(self, n: int) -> OutcomeSpace:
        return OutcomeSpace.iid(self.model, n)

    def marginal_model(self, n: int) -> SignalModel:
        return self.model

    def _probabilities(self) -> np.ndarray:
        """Per state (row), each support symbol's probability as a float."""
        p = np.array(
            [[float(self.model.weight(state, s)) for s in self.model.support] for state in (0, 1)]
        )
        return p / p.sum(axis=1, keepdims=True)

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        """Profile indices are mixed-radix numbers over the sorted support,
        which is the order of :meth:`OutcomeSpace.iid`."""
        n, p = space.n, self._probabilities()
        support = self.model.support
        k = len(support)
        rank = np.empty(k, dtype=np.int64)
        rank[sorted(range(k), key=lambda i: support[i])] = np.arange(k)
        place = k ** np.arange(n - 1, -1, -1, dtype=np.int64)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            ranks = np.empty((size, n), dtype=np.int64)
            for state in (0, 1):
                rows = states == state
                picks = rng.choice(k, size=(int(rows.sum()), n), p=p[state])
                ranks[rows] = rank[picks]
            return states, ranks @ place

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        """Sample symbol counts and decide the pooled outcome from them.

        The sign of the summed log-likelihood ratio is taken in floats and
        re-checked exactly whenever the float margin is too small to be
        trusted, once per distinct count vector of the batch, so ties are
        exact.
        """
        model = self.model
        support = model.support
        p = self._probabilities()
        z = np.array([log_likelihood_ratio(model, s) for s in support])
        # Each z_i is log(num) - log(den) of the symbol's odds ratio, each log
        # within an ulp, and the dot product adds about an ulp per term; this
        # per-count scale bounds the float llr's error with room to spare.
        odds = reduced_odds(model)
        error_scale = (len(support) + 2) * np.finfo(float).eps * np.array(
            [abs(math.log(a0)) + abs(math.log(a1)) for a0, a1 in odds]
        )

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            counts = np.empty((size, len(support)), dtype=np.int64)
            for state in (0, 1):
                rows = states == state
                counts[rows] = rng.multinomial(n, p[state], size=int(rows.sum()))
            llr = (counts * z).sum(axis=1)
            beliefs = belief_from_llr(llr)
            actions = (llr > 0).astype(np.int8)
            flagged = np.abs(llr) <= np.maximum(1e-9, (counts * error_scale).sum(axis=1))
            if flagged.any():
                distinct, inverse = np.unique(counts[flagged], axis=0, return_inverse=True)
                exact = [odds_posterior(odds, row) for row in distinct.tolist()]
                inverse = inverse.reshape(-1)
                beliefs[flagged] = np.array([float(x) for x in exact])[inverse]
                actions[flagged] = np.array([action_code(x) for x in exact], dtype=np.int8)[inverse]
            return states, actions, beliefs

        return draw


# ---------------------------------------------------------------------------
# parity: uniform bits whose XOR is the state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityBits:
    """Uniform i.i.d. bits with the state equal to their sum modulo 2."""

    def pair_count(self, n: int) -> int:
        return 2**n

    def weights(self, n: int) -> dict:
        w = Fraction(1, 2**n)
        out = {}
        for profile in itertools.product((0, 1), repeat=n):
            out[(sum(profile) % 2, profile)] = w
        return out

    def marginal_model(self, n: int) -> None:
        return None

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        index = profile_indexer(space)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            return states, index(_parity_bits(rng, states, space.n))

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        return _known_state_draw


# ---------------------------------------------------------------------------
# exchangeable flip family (pairwise-independent, conditionally uncorrelated)
# ---------------------------------------------------------------------------


def flip_accuracy(n: int) -> Fraction:
    """1/2 + 1/2 sqrt(1 - 3/(n-1)), exact at n = 4, dyadic-float beyond."""
    if n < 4:
        raise ScenarioParameterError("flip accuracy is imaginary for n < 4")
    if n == 4:
        return Fraction(1, 2)
    return Fraction(0.5 + 0.5 * math.sqrt(1.0 - 3.0 / (n - 1)))


@dataclass(frozen=True)
class ExchangeableFlip:
    """A hidden proxy bit equals the state w.p. q; a uniformly random subset
    of 3n/4 agents observes the proxy and the rest observe its complement.

    The subset is integrated out, so the joint law is exchangeable with
    support on the two profile classes of one-count 3n/4 and n/4.  The
    accuracy q makes the signals pairwise independent given the state, hence
    conditionally uncorrelated; this is re-verified at construction.
    """

    q: Fraction
    subset_fraction: Fraction = Fraction(3, 4)

    def __post_init__(self):
        if not Fraction(1, 2) <= self.q < 1:
            raise ScenarioParameterError("proxy accuracy must lie in [1/2, 1)")

    def ones_count(self, n: int, proxy: int) -> int:
        high = int(n * self.subset_fraction)
        return high if proxy == 1 else n - high

    def _class_sizes(self, n: int) -> int:
        return math.comb(n, int(n * self.subset_fraction))

    def pair_count(self, n: int) -> int:
        return 4 * self._class_sizes(n)

    def weights(self, n: int) -> dict:
        high = int(n * self.subset_fraction)
        count = self._class_sizes(n)
        out = {}
        for ones, match in ((high, 1), (n - high, 0)):
            for positions in itertools.combinations(range(n), ones):
                inside = set(positions)
                profile = tuple(1 if i in inside else 0 for i in range(n))
                for state in (0, 1):
                    agree = self.q if (match == state) else 1 - self.q
                    w = Fraction(1, 2) * agree / count
                    if w > 0:
                        out[(state, profile)] = out.get((state, profile), Fraction(0)) + w
        return out

    def marginal_model(self, n: int) -> SignalModel | None:
        a1 = Fraction(1, 4) + self.q / 2
        if a1 == Fraction(1, 2):
            return None
        return SignalModel(alphabet=(0, 1), mu0=(a1, 1 - a1), mu1=(1 - a1, a1))

    def verify_uncorrelated(self, n: int) -> float:
        """Max |Cov(z_u, z_v | S)| over the two states; raises when it is
        not numerically zero."""
        a1 = float(Fraction(1, 4) + self.q / 2)
        a0 = 1.0 - a1
        if a1 == a0:
            return 0.0
        z1 = math.log(a1 / a0)
        z0 = math.log((1 - a1) / (1 - a0))
        high = int(n * self.subset_fraction)
        both_in = high * (high - 1) / (n * (n - 1))
        both_out = (n - high) * (n - high - 1) / (n * (n - 1))
        worst = 0.0
        q = float(self.q)
        for state in (0, 1):
            match = q if state == 1 else 1 - q
            p11 = match * both_in + (1 - match) * both_out
            p1 = match * high / n + (1 - match) * (n - high) / n
            p10 = p1 - p11
            p00 = 1 - 2 * p1 + p11
            mean = p1 * z1 + (1 - p1) * z0
            second = p11 * z1 * z1 + 2 * p10 * z1 * z0 + p00 * z0 * z0
            worst = max(worst, abs(second - mean * mean))
        if worst > ZERO_COV_TOLERANCE:
            raise ScenarioParameterError(
                f"construction is not conditionally uncorrelated (|cov| = {worst:.3e})"
            )
        return worst

    def draw_proxies(self, rng, states: np.ndarray) -> np.ndarray:
        """The hidden proxy bit of each trial: the state w.p. q."""
        return np.where(rng.random(len(states)) < float(self.q), states, 1 - states)

    def draw_bits(self, rng, proxies: np.ndarray, n: int) -> np.ndarray:
        """Rows of signals: each proxy on a uniformly random subset of
        ``ones_count(n, 1)`` agents, its complement on the others."""
        subset = np.arange(n) < self.ones_count(n, 1)
        inside = rng.permuted(np.tile(subset, (len(proxies), 1)), axis=1)
        column = proxies[:, None]
        return np.where(inside, column, 1 - column)

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        index = profile_indexer(space)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            return states, index(self.draw_bits(rng, self.draw_proxies(rng, states), space.n))

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        """The pooled posterior depends on the profile only through the
        decoded proxy bit, so each trial decodes its profile's one-count
        and reports q or 1 - q."""
        high = int(n * self.subset_fraction)
        beliefs = np.array([float(1 - self.q), float(self.q)])
        codes = np.array([action_code(1 - self.q), action_code(self.q)], dtype=np.int8)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            ones = np.where(self.draw_proxies(rng, states) == 1, high, n - high)
            decoded = (ones == high).astype(np.int64)
            return states, codes[decoded], beliefs[decoded]

        return draw


# ---------------------------------------------------------------------------
# two-bit combination: parity first bits, flip second bits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoBitCombo:
    """Each signal is a pair: parity-coupled first bit, flip-family second bit."""

    flip: ExchangeableFlip

    def pair_count(self, n: int) -> int:
        return 2**n * 2 * math.comb(n, int(n * self.flip.subset_fraction))

    def weights(self, n: int) -> dict:
        high = int(n * self.flip.subset_fraction)
        count = math.comb(n, high)
        parity_w = Fraction(1, 2 ** (n - 1))
        out = {}
        second_classes = []
        for ones, match in ((high, 1), (n - high, 0)):
            for positions in itertools.combinations(range(n), ones):
                inside = set(positions)
                b2 = tuple(1 if i in inside else 0 for i in range(n))
                second_classes.append((b2, match))
        for b1 in itertools.product((0, 1), repeat=n):
            state = sum(b1) % 2
            for b2, match in second_classes:
                agree = self.flip.q if (match == state) else 1 - self.flip.q
                w = Fraction(1, 2) * parity_w * agree / count
                if w > 0:
                    profile = tuple(zip(b1, b2))
                    out[(state, profile)] = w
        return out

    def marginal_model(self, n: int) -> SignalModel | None:
        a1 = Fraction(1, 4) + self.flip.q / 2
        if a1 == Fraction(1, 2):
            return None
        alphabet = ((0, 0), (0, 1), (1, 0), (1, 1))
        half = Fraction(1, 2)
        mu1 = (half * (1 - a1), half * a1, half * (1 - a1), half * a1)
        mu0 = (half * a1, half * (1 - a1), half * a1, half * (1 - a1))
        return SignalModel(alphabet=alphabet, mu0=mu0, mu1=mu1)

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        """A signal (b1, b2) has rank 2*b1 + b2 among the four pairs."""
        index = profile_indexer(space)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            first = _parity_bits(rng, states, space.n)
            second = self.flip.draw_bits(rng, self.flip.draw_proxies(rng, states), space.n)
            return states, index(2 * first + second)

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        return _known_state_draw


# ---------------------------------------------------------------------------
# senate: a fixed committee pools its signals, everyone learns its action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SenateStaged:
    """Binary signals at a fixed accuracy; the first ``senate_size`` agents
    pool their signals and the committee's optimal action is public initial
    information for everybody."""

    senate_size: int
    accuracy: Fraction
    model: SignalModel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "model", SignalModel.binary(self.accuracy))

    def pair_count(self, n: int) -> int:
        return 2 ** (n + 1)

    def outcome_space(self, n: int) -> OutcomeSpace:
        return OutcomeSpace.iid(self.model, n)

    def marginal_model(self, n: int) -> SignalModel:
        return self.model

    def initial_partitions(self, space: OutcomeSpace) -> list[Partition]:
        """Members know the committee's signals, everyone else their own
        signal and the committee's verdict."""
        m = self.senate_size
        committee = trivial_partition(space).refine(joint_codes(space.symbols[:, :m].T)[0])
        verdict = self.trial_labels(space)
        return [committee] * m + [p.refine(verdict) for p in own_signal_partitions(space)[m:]]

    # -- exact committee arithmetic -------------------------------------

    def deference_is_exact(self, law: ExactSummary | None = None) -> bool:
        """True when a lone opposing signal can never flip the committee's
        verdict: the posterior given (committee action, worst own bit) stays
        strictly on the committee's side.  By state symmetry P(verdict 1 |
        S=1) and P(verdict 1 | S=0) are the committee's exact success and
        failure probabilities.  ``law`` is the committee's pooled law
        (``exact_pooled_summary`` of its ``senate_size`` signals); without
        it only the action's law is built, never the belief error."""
        if law is None:
            classes = likelihood_classes(self.model, self.senate_size)
            success, _tie, failure = pooled_action_law(*classes)
        else:
            success, failure = law.success, law.failure
        acc = self.accuracy
        return success * (1 - acc) > failure * acc

    def tally_posterior(self, ones: int) -> Fraction:
        """Exact P(S=1 | committee tally), the committee's pooled belief."""
        return count_posterior(self.model, (self.senate_size - ones, ones))

    def trial_labels(self, space: OutcomeSpace) -> np.ndarray:
        """Trials are bucketed by the committee's own verdict: a split
        committee counts as a tie even though the continued announcements
        settle on some action.  One action code per profile of ``space``."""
        return _majority_codes(space.symbols[:, : self.senate_size].sum(axis=1), self.senate_size)

    def action_trial_sampler(self, n: int) -> Callable:
        """Batch draw of the public-action fixed point via the staged structure.

        The committee's action is already measurable for every agent, so on
        non-split committees the fixed point is immediate and common; a split
        committee is uninformative and the continued announcements aggregate
        the remaining signals instead.  Returns arrays of
        (state, committee action code, common fixed-point action code,
        committee tally).
        """
        if not self.deference_is_exact():
            raise ScenarioParameterError(
                "committee too weak: agents would not defer, analytic fixed "
                "point unavailable"
            )
        m = self.senate_size
        acc = float(self.accuracy)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            p_one = np.where(states == 1, acc, 1.0 - acc)
            senate_ones = rng.binomial(m, p_one)
            rest_ones = rng.binomial(n - m, p_one)
            committee = _majority_codes(senate_ones, m)
            common = np.where(committee == TIE, _majority_codes(rest_ones, n - m), committee)
            return states, committee, common, senate_ones

        return draw

    def profile_sampler(self, space: OutcomeSpace) -> Callable:
        return IidSignals(self.model).profile_sampler(space)

    def pooled_sampler(self, n: int) -> Callable:
        return IidSignals(self.model).pooled_sampler(n)


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def parity(n: int) -> Scenario:
    """Uniform bits whose XOR equals the state: agreement without learning."""
    if n < 2:
        raise ScenarioParameterError("parity needs at least 2 agents")
    return Scenario(name=f"parity({n})", n=n, structure=ParityBits())


def iid_binary(n: int, p) -> Scenario:
    """Conditionally i.i.d. binary signals matching the state w.p. p."""
    if n < 1:
        raise ScenarioParameterError("need at least one agent")
    accuracy = as_weight(p)
    if not Fraction(1, 2) < accuracy < 1:
        raise ScenarioParameterError("accuracy must lie in (1/2, 1)")
    return Scenario(
        name=f"iid_binary({n}, {accuracy})",
        n=n,
        structure=IidSignals(SignalModel.binary(accuracy)),
        metadata={"p": accuracy},
    )


def uncorrelated_tight(n: int) -> Scenario:
    """The pairwise-independent flip family that meets the aggregate bound."""
    if n % 4 != 0:
        raise ScenarioParameterError("agent count must be divisible by 4")
    if n < 4:
        raise ScenarioParameterError("flip accuracy is imaginary for n < 4")
    q = flip_accuracy(n)
    structure = ExchangeableFlip(q=q)
    structure.verify_uncorrelated(n)
    return Scenario(
        name=f"uncorrelated_tight({n})",
        n=n,
        structure=structure,
        metadata={"q": q, "error_rate": 1 - q},
    )


def two_bit(n: int) -> Scenario:
    """Two-bit signals: parity first bits plus flip-family second bits.

    The agent count must be divisible by 4 because the second bits embed the
    flip construction.
    """
    if n % 4 != 0 or n < 4:
        raise ScenarioParameterError("agent count must be a multiple of 4, at least 4")
    q = flip_accuracy(n)
    flip = ExchangeableFlip(q=q)
    flip.verify_uncorrelated(n)
    return Scenario(
        name=f"two_bit({n})",
        n=n,
        structure=TwoBitCombo(flip=flip),
        metadata={"q": q},
    )


def senate(n: int, senate_size: int = 100, accuracy=Fraction(2, 3)) -> Scenario:
    """A committee pools its signals; its action is public knowledge."""
    if senate_size < 1:
        raise ScenarioParameterError("committee needs at least one member")
    if n <= senate_size:
        raise ScenarioParameterError("need more agents than committee members")
    acc = as_weight(accuracy)
    if not Fraction(1, 2) < acc < 1:
        raise ScenarioParameterError("accuracy must lie in (1/2, 1)")
    return Scenario(
        name=f"senate({n})",
        n=n,
        structure=SenateStaged(senate_size=senate_size, accuracy=acc),
        metadata={"senate_size": senate_size, "accuracy": acc},
    )


def geometric_tail_model(depth: int, ratio) -> SignalModel:
    """Mirrored geometric model with log-likelihood ratios +-1 .. +-depth.

    Weight of value k under state 1 is proportional to ratio^|k| e^{k/2};
    state 0 mirrors k to -k.  The e^{k/2} factors enter as exact dyadic
    rationals, so weights stay exact while the realized log-likelihood
    ratios equal the integers k to float precision.
    """
    if depth < 1:
        raise ScenarioParameterError("tail depth must be at least 1")
    r = as_weight(ratio)
    if not 0 < r < 1:
        raise ScenarioParameterError("tail ratio must lie in (0, 1)")
    symbols = [k for k in range(-depth, depth + 1) if k != 0]
    raw = {k: r ** abs(k) * Fraction(math.exp(k / 2.0)) for k in symbols}
    total = sum(raw.values())
    mu1 = tuple(raw[k] / total for k in symbols)
    mu0 = tuple(raw[-k] / total for k in symbols)
    return SignalModel(alphabet=tuple(symbols), mu0=mu0, mu1=mu1)


def geometric_tail(n: int, depth: int = 8, ratio=Fraction(7, 10)) -> Scenario:
    """Conditionally i.i.d. signals whose private beliefs approach 0 and 1
    as the tail depth grows."""
    if n < 1:
        raise ScenarioParameterError("need at least one agent")
    model = geometric_tail_model(depth, ratio)
    return Scenario(
        name=f"geometric_tail({n}, K={depth})",
        n=n,
        structure=IidSignals(model),
        metadata={"K": depth, "ratio": as_weight(ratio)},
    )


def iid_custom(n: int, model) -> Scenario:
    """Conditionally i.i.d. signals from a user-supplied model.

    ``model`` is either a :class:`SignalModel` or its config-file form
    (alphabet as strings, weights as num/den strings).
    """
    if n < 1:
        raise ScenarioParameterError("need at least one agent")
    if isinstance(model, dict):
        model = SignalModel.from_config(model)
    if not isinstance(model, SignalModel):
        raise ScenarioParameterError("model must be a SignalModel or its config form")
    return Scenario(name=f"iid_custom({n})", n=n, structure=IidSignals(model))


SCENARIO_FAMILIES: dict[str, Callable[..., Scenario]] = {
    "parity": parity,
    "iid_binary": iid_binary,
    "iid_custom": iid_custom,
    "uncorrelated_tight": uncorrelated_tight,
    "two_bit": two_bit,
    "senate": senate,
    "geometric_tail": geometric_tail,
}

FAMILY_SIGNATURES = {
    "parity": "parity(n)",
    "iid_binary": "iid_binary(n, p)",
    "iid_custom": "iid_custom(n, model={alphabet, mu0, mu1})",
    "uncorrelated_tight": "uncorrelated_tight(n), n divisible by 4",
    "two_bit": "two_bit(n), n divisible by 4",
    "senate": "senate(n, senate_size=100, accuracy=2/3)",
    "geometric_tail": "geometric_tail(n, K, ratio)",
}


_PARAM_ALIASES = {"K": "depth", "k": "depth"}


def build_scenario(name: str, n: int, **params) -> Scenario:
    """Look up a family by name and construct it, e.g. from CLI parameters."""
    try:
        family = SCENARIO_FAMILIES[name]
    except KeyError:
        raise ScenarioParameterError(
            f"unknown scenario {name!r}; choices: {sorted(SCENARIO_FAMILIES)}"
        ) from None
    translated = {_PARAM_ALIASES.get(key, key): value for key, value in params.items()}
    # Constructors only parse and check their parameters; the engine work
    # happens later, outside these handlers.
    try:
        return family(n, **translated)
    except AgreementLabError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioParameterError(f"{name}: {exc}; expected {FAMILY_SIGNATURES[name]}") from exc
