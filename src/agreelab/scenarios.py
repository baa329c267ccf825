"""Constructors for the benchmark scenario families.

A scenario bundles an agent count with a joint signal structure and the
agents' initial information.  Structures expose enumeration for the exact
engine, per-trial samplers for the Monte Carlo path and, where it exists,
the per-agent marginal signal model used by the aggregate bounds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .bounds import ExactSummary, count_posterior, exact_pooled_summary
from .errors import EnumerationBudgetError, ScenarioParameterError
from .knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_ZERO,
    DEFAULT_ENUMERATION_BUDGET,
    OutcomeSpace,
    Partition,
    optimal_action_set,
    own_signal_partitions,
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

    def outcome_space(self, budget: int = DEFAULT_ENUMERATION_BUDGET) -> OutcomeSpace:
        size = self.structure.pair_count(self.n)
        if size > budget:
            raise EnumerationBudgetError(
                f"{self.name}: {size} (state, profile) pairs exceed the "
                f"exact-engine budget {budget}"
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

    def profile_sampler(self) -> Callable:
        return self.structure.profile_sampler(self.n)

    def pooled_sampler(self) -> Callable:
        return self.structure.pooled_sampler(self.n)


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

    def profile_sampler(self, n: int) -> Callable:
        support = self.model.support
        p_by_state = [
            np.array([float(self.model.weight(state, s)) for s in support])
            for state in (0, 1)
        ]
        for p in p_by_state:
            p /= p.sum()
        index = np.arange(len(support))

        def draw(rng):
            state = int(rng.integers(0, 2))
            picks = rng.choice(index, size=n, p=p_by_state[state])
            return state, tuple(support[i] for i in picks)

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        """Sample symbol counts and decide the pooled outcome from them.

        The sign of the summed log-likelihood ratio is taken in floats and
        re-checked exactly whenever the float margin is too small to be
        trusted, so ties are exact.
        """
        model = self.model
        support = model.support
        p_by_state = [
            np.array([float(model.weight(state, s)) for s in support])
            for state in (0, 1)
        ]
        for p in p_by_state:
            p /= p.sum()
        z = np.array([log_likelihood_ratio(model, s) for s in support])
        # Each z_i is log(num) - log(den) of the symbol's odds ratio, each log
        # within an ulp, and the dot product adds about an ulp per term; this
        # per-count scale bounds the float llr's error with room to spare.
        ratios = [model.weight(1, s) / model.weight(0, s) for s in support]
        error_scale = (len(support) + 2) * np.finfo(float).eps * np.array(
            [abs(math.log(r.numerator)) + abs(math.log(r.denominator)) for r in ratios]
        )

        def draw(rng, force_state=None):
            state = int(rng.integers(0, 2)) if force_state is None else force_state
            counts = rng.multinomial(n, p_by_state[state])
            llr = float(np.dot(counts, z))
            if abs(llr) > max(1e-9, float(np.dot(counts, error_scale))):
                action = ACTION_ONE if llr > 0 else ACTION_ZERO
                return state, belief_from_llr(llr), action
            posterior = count_posterior(model, counts)
            return state, float(posterior), optimal_action_set(posterior)

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

    def profile_sampler(self, n: int) -> Callable:
        def draw(rng):
            bits = rng.integers(0, 2, size=n)
            return int(bits.sum() % 2), tuple(int(b) for b in bits)

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        def draw(rng, force_state=None):
            if force_state is None:
                ones = int(rng.binomial(n, 0.5))
                state = ones % 2
            else:
                state = force_state
            return state, float(state), (ACTION_ONE if state else ACTION_ZERO)

        return draw


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

    def profile_sampler(self, n: int) -> Callable:
        high = int(n * self.subset_fraction)
        q = float(self.q)

        def draw(rng):
            state = int(rng.integers(0, 2))
            proxy = state if rng.random() < q else 1 - state
            inside = rng.choice(n, size=high, replace=False)
            profile = np.full(n, 1 - proxy, dtype=np.int64)
            profile[inside] = proxy
            return state, tuple(int(b) for b in profile)

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        """The pooled posterior depends on the profile only through the
        decoded proxy bit, so the trial decodes the sampled profile's
        one-count and reports q or 1 - q."""
        q = float(self.q)
        posterior = {1: self.q, 0: 1 - self.q}
        high = int(n * self.subset_fraction)

        def draw(rng, force_state=None):
            state = int(rng.integers(0, 2)) if force_state is None else force_state
            proxy = state if rng.random() < q else 1 - state
            ones = self.ones_count(n, proxy)
            decoded = 1 if ones == high else 0
            x = posterior[decoded]
            return state, float(x), optimal_action_set(x)

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

    def profile_sampler(self, n: int) -> Callable:
        def draw(rng):
            state = int(rng.integers(0, 2))
            head = rng.integers(0, 2, size=n - 1)
            last = (state + int(head.sum())) % 2
            b1 = tuple(int(b) for b in head) + (last,)
            proxy = state if rng.random() < float(self.flip.q) else 1 - state
            subset_size = self.flip.ones_count(n, 1)
            inside = set(int(i) for i in rng.choice(n, size=subset_size, replace=False))
            b2 = tuple(proxy if i in inside else 1 - proxy for i in range(n))
            return state, tuple(zip(b1, b2))

        return draw

    def pooled_sampler(self, n: int) -> Callable:
        def draw(rng, force_state=None):
            state = int(rng.integers(0, 2)) if force_state is None else force_state
            return state, float(state), (ACTION_ONE if state else ACTION_ZERO)

        return draw


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

    def senate_action(self, senate_bits) -> frozenset:
        tally = sum(senate_bits)
        half = Fraction(self.senate_size, 2)
        if tally > half:
            return ACTION_ONE
        if tally < half:
            return ACTION_ZERO
        return ACTION_BOTH

    def initial_partitions(self, space: OutcomeSpace) -> list[Partition]:
        """Members know the committee's signals, everyone else their own
        signal and the committee's verdict."""
        m = self.senate_size
        everything = trivial_partition(space)
        committee = everything.refine_by_key(lambda profile: profile[:m])
        verdict = everything.refine_by_key(lambda profile: self.senate_action(profile[:m]))
        return [committee] * m + [
            p.refine(verdict.labels) for p in own_signal_partitions(space)[m:]
        ]

    # -- exact committee arithmetic -------------------------------------

    def deference_is_exact(self, law: ExactSummary | None = None) -> bool:
        """True when a lone opposing signal can never flip the committee's
        verdict: the posterior given (committee action, worst own bit) stays
        strictly on the committee's side.  By state symmetry P(verdict 1 |
        S=1) and P(verdict 1 | S=0) are the committee's exact success and
        failure probabilities.  ``law`` is the committee's pooled law
        (``exact_pooled_summary`` of its ``senate_size`` signals), computed
        here when the caller does not already hold it."""
        if law is None:
            law = exact_pooled_summary(self.model, self.senate_size)
        acc = self.accuracy
        return law.success * (1 - acc) > law.failure * acc

    def tally_posterior(self, ones: int) -> Fraction:
        """Exact P(S=1 | committee tally), the committee's pooled belief."""
        return count_posterior(self.model, (self.senate_size - ones, ones))

    def trial_label(self, profile, common_action) -> frozenset:
        """Trials are bucketed by the committee's own verdict: a split
        committee counts as a tie even though the continued announcements
        settle on some action."""
        return self.senate_action(profile[: self.senate_size])

    def action_trial_sampler(self, n: int) -> Callable:
        """Sample the public-action fixed point via the staged structure.

        The committee's action is already measurable for every agent, so on
        non-split committees the fixed point is immediate and common; a split
        committee is uninformative and the continued announcements aggregate
        the remaining signals instead.  Returns
        (state, committee action, common fixed-point action, committee tally).
        """
        if not self.deference_is_exact():
            raise ScenarioParameterError(
                "committee too weak: agents would not defer, analytic fixed "
                "point unavailable"
            )
        m = self.senate_size
        acc = float(self.accuracy)

        def draw(rng, force_state=None):
            state = int(rng.integers(0, 2)) if force_state is None else force_state
            p_one = acc if state == 1 else 1.0 - acc
            senate_ones = int(rng.binomial(m, p_one))
            rest_ones = int(rng.binomial(n - m, p_one))
            committee = self.senate_action([1] * senate_ones + [0] * (m - senate_ones))
            if committee != ACTION_BOTH:
                common = committee
            else:
                rest = n - m
                if 2 * rest_ones > rest:
                    common = ACTION_ONE
                elif 2 * rest_ones < rest:
                    common = ACTION_ZERO
                else:
                    common = ACTION_BOTH
            return state, committee, common, senate_ones

        return draw

    def profile_sampler(self, n: int) -> Callable:
        acc = float(self.accuracy)

        def draw(rng):
            state = int(rng.integers(0, 2))
            p_one = acc if state == 1 else 1.0 - acc
            bits = (rng.random(n) < p_one).astype(np.int64)
            return state, tuple(int(b) for b in bits)

        return draw

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
    return family(n, **translated)
