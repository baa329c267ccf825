"""Constructors for the benchmark scenario families.

A scenario bundles an agent count with a joint signal structure and the
agents' initial information.  Each structure builds its own outcome space
for the exact engine, straight into the integer form, and exposes batch
samplers for the Monte Carlo path and, where it exists, the per-agent
marginal signal model used by the aggregate bounds.

Every sampler returns a draw ``draw(rng, size, force_state=None)`` that
makes ``size`` trials with a few vectorised calls and returns arrays of
states, action codes (:data:`~agreelab.knowledge.ACTION_SETS`) and float
beliefs X.  Each structure draws one statistic per trial,
``draw_statistic(rng, states, n)``, the one its outcomes read, and its
``trial_outcomes`` maps it to (action codes, X): the symbol counts of
i.i.d. signals (:meth:`IidSignals.trial_outcomes`), the committee's and the
others' ones for the senate, the hidden proxy bit for flip and two-bit, and
nothing for parity.  Flip's pooled sampler draws that same proxy bit; the
pooled samplers of i.i.d. signals and of the senate draw the symbol counts
with one multinomial call per state instead, so their tallies differ from
the protocol runs' draw for draw.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .bounds import count_law, pooled_action_law, reduced_odds
from .dynamics import PUBLIC_ACTION, PUBLIC_BELIEF, decide_counts
from .errors import AgreementLabError, ScenarioParameterError
from .knowledge import (
    TIE,
    OutcomeSpace,
    Partition,
    action_code,
    check_pair_budget,
    joint_codes,
    own_signal_partitions,
    trivial_partition,
    weight_dtype,
)
from .signals import SignalModel, as_weight, belief_from_llr

ZERO_COV_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Scenario:
    """A named joint signal structure for n agents."""

    name: str
    n: int
    structure: object
    metadata: dict = field(default_factory=dict)

    def outcome_space(self) -> OutcomeSpace:
        check_pair_budget(self.structure.pair_count(self.n), self.name)
        return self.structure.outcome_space(self.n)

    def initial_partitions(self, space: OutcomeSpace) -> list[Partition]:
        return getattr(self.structure, "initial_partitions", own_signal_partitions)(space)

    @property
    def marginal_model(self) -> SignalModel | None:
        return self.structure.marginal_model(self.n)

    def profile_sampler(self, outcome: Callable[[np.ndarray], tuple]) -> Callable:
        """Batch draw of (states, *``outcome`` of the structure's drawn statistic)."""
        return statistic_draw(self.structure, self.n, outcome)

    def pooled_sampler(self) -> Callable:
        """Batch draw of (states, pooled action codes, pooled beliefs)."""
        return self.structure.pooled_sampler(self.n)


def _draw_states(rng, size: int, force_state) -> np.ndarray:
    """``size`` fair states, or ``force_state`` repeated."""
    if force_state is None:
        return rng.integers(0, 2, size=size)
    return np.full(size, force_state, dtype=np.int64)


def statistic_draw(structure, n: int, outcome: Callable[[np.ndarray], tuple]) -> Callable:
    """Batch draw of (states, *``outcome`` of the statistic that
    ``structure.draw_statistic`` draws for them at ``n`` agents)."""
    statistic = structure.draw_statistic

    def draw(rng, size, force_state=None):
        states = _draw_states(rng, size, force_state)
        return states, *outcome(statistic(rng, states, n))

    return draw


def _known_state_draw(rng, size: int, force_state=None):
    """Pooled draw of a structure whose full profile reveals the state."""
    states = _draw_states(rng, size, force_state)
    return states, states.astype(np.int8), states.astype(float)


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

    def draw_statistic(self, rng, states: np.ndarray, n: int) -> np.ndarray:
        """Each trial's counts over the support, in its order, of n
        independent draws from mu_S, by inverse transform: per state, one
        uniform per agent, cut at the cumulative weights where
        ``rng.choice(k, size=(size, n), p=p)`` cuts the same uniforms, so the
        counts and the generator's next draw are ``choice``'s.  Two symbols
        count the uniforms past the first cut; more take each uniform's
        symbol by ``searchsorted`` and count the rows with one ``bincount``."""
        p = self._probabilities()
        k = p.shape[1]
        counts = np.empty((len(states), k), dtype=np.int64)
        for state in (0, 1):
            rows = states == state
            size = int(rows.sum())
            cut = p[state].cumsum()
            cut /= cut[-1]
            # The uniforms are used inside one expression and freed there:
            # held in a name until the bincount, the draw of 16 symbols at
            # n = 5 ran about 40% slower.
            if k == 2:
                ones = np.count_nonzero(rng.random((size, n)) >= cut[0], axis=1)
                counts[rows] = np.column_stack((n - ones, ones))
            else:
                offsets = k * np.arange(size)[:, None]
                symbols = cut.searchsorted(rng.random((size, n)), side="right") + offsets
                counts[rows] = np.bincount(symbols.ravel(), minlength=k * size).reshape(size, k)
        return counts

    def trial_outcomes(self, n: int, kind: str) -> Callable:
        """Protocol ``kind``'s (action codes, X) of rows of counts, as
        :meth:`draw_statistic` draws them, each count vector decided once
        per run.

        The outcome keeps one code and one X per vector of counts over the
        support, at its rank in lexicographic order (``count_law``'s), so
        ``comb(n + k - 1, k - 1)`` rows for k symbols, at most the pair
        budget.  A vector's rank is the number of vectors before it.  Let
        ``T[i, m] = comb(m + k - 1 - i, k - 1 - i)`` count the vectors of m
        agents over symbols i and later.  With ``left`` agents not counted
        on the symbols before i, the vectors that agree up to i and put
        fewer agents on it number ``T[i, left] - T[i, left - c_i]`` (the
        hockey-stick identity), and the rank sums these over i.  Each batch
        decides only the distinct count vectors it draws that no earlier
        batch did (:func:`~agreelab.dynamics.decide_counts`), so a run never
        decides more than the whole table.
        """
        model = self.model
        k = len(model.support)
        # T flat, its row i from i * (n + 1), so that each term is one take.
        vectors = np.array(
            [math.comb(m + k - 1 - i, k - 1 - i) for i in range(k) for m in range(n + 1)],
            dtype=np.int64,
        )
        rows = np.arange(k) * (n + 1)
        size = int(vectors[n])
        codes, xs = np.full(size, -1, dtype=np.int8), np.empty(size)  # -1: not yet decided

        def outcome(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            after = rows + n - np.cumsum(counts, axis=1)
            at = np.add.reduce(vectors.take(after + counts) - vectors.take(after), axis=1)
            fresh = np.flatnonzero(codes[at] < 0)
            new, first = np.unique(at[fresh], return_index=True)
            if len(new):
                codes[new], xs[new] = decide_counts(model, kind, counts[fresh[first]])
            return codes[at], xs[at]

        return outcome

    def pooled_sampler(self, n: int) -> Callable:
        """Sample symbol counts, one multinomial call per state, and decide
        the pooled outcome from them.

        The sign of the summed log-likelihood ratio is taken in floats and
        re-checked exactly whenever the float margin is too small to be
        trusted, so ties are exact.  The flagged rows are sorted by their
        counts (one ``np.lexsort``), and each distinct count vector among
        them is decided once, all in one call of
        :func:`~agreelab.dynamics.decide_counts` (the pooled posterior of
        :func:`~agreelab.bounds.count_odds`).
        """
        model = self.model
        p = self._probabilities()
        # z_i = log(a1) - log(a0) of the symbol's reduced odds, bit-equal to
        # log_likelihood_ratio.  Each log is within an ulp, and the dot product
        # adds about an ulp per term; this per-count scale bounds the float
        # llr's error with room to spare.
        logs = np.array([[math.log(a) for a in pair] for pair in reduced_odds(model)])
        z = logs[:, 1] - logs[:, 0]
        error_scale = (len(logs) + 2) * np.finfo(float).eps * np.abs(logs).sum(axis=1)

        def draw(rng, size, force_state=None):
            states = _draw_states(rng, size, force_state)
            counts = np.empty((size, len(logs)), dtype=np.int64)
            for state in (0, 1):
                rows = states == state
                counts[rows] = rng.multinomial(n, p[state], size=int(rows.sum()))
            llr = (counts * z).sum(axis=1)
            beliefs = belief_from_llr(llr)
            actions = (llr > 0).astype(np.int8)
            flagged = np.abs(llr) <= np.maximum(1e-9, (counts * error_scale).sum(axis=1))
            if flagged.any():
                at = np.flatnonzero(flagged)
                at = at[np.lexsort(counts[at].T)]
                ranked = counts[at]
                starts = np.concatenate(([True], (ranked[1:] != ranked[:-1]).any(axis=1)))
                group = np.cumsum(starts) - 1
                codes, xs = decide_counts(model, PUBLIC_BELIEF, ranked[starts])
                actions[at], beliefs[at] = codes[group], xs[group]
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

    def outcome_space(self, n: int) -> OutcomeSpace:
        rows = np.indices((2,) * n, dtype=np.uint8).reshape(n, -1).T
        odd = rows.sum(axis=1, dtype=np.int64) % 2
        return OutcomeSpace((0, 1), rows, 2**n, 1 - odd, odd)

    def marginal_model(self, n: int) -> None:
        return None

    def draw_statistic(self, rng, states: np.ndarray, n: int) -> np.ndarray:
        """Nothing: no outcome reads the bits, so none is drawn; one empty
        row per trial."""
        return np.empty((len(states), 0), dtype=np.int64)

    def trial_outcomes(self, n: int, kind: str) -> Callable:
        """Every protocol's (action codes, X) of every trial: a tie and 1/2.

        Proof.  Any n - 1 bits are independent of the state, so each agent
        starts at belief 1/2, every announcement is constant and nothing
        refines, under every protocol and on any digraph."""
        return lambda nothing: (
            np.full(len(nothing), TIE, dtype=np.int8), np.full(len(nothing), 0.5)
        )

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

    def __post_init__(self):
        if not Fraction(1, 2) <= self.q < 1:
            raise ScenarioParameterError("proxy accuracy must lie in [1/2, 1)")

    def ones_count(self, n: int, proxy: int) -> int:
        """Ones in a profile whose hidden proxy bit is ``proxy``."""
        high = 3 * n // 4
        return high if proxy == 1 else n - high

    def _class_sizes(self, n: int) -> int:
        return math.comb(n, self.ones_count(n, 1))

    def pair_count(self, n: int) -> int:
        return 4 * self._class_sizes(n)

    def bit_rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The support's rows of n bits, sorted, and each row's proxy bit:
        the ``ones_count(n, 0)``-subsets of the agents and their complements."""
        picks = np.array(list(itertools.combinations(range(n), self.ones_count(n, 0))))
        rows = np.zeros((len(picks), n), dtype=np.uint8)
        np.put_along_axis(rows, picks, 1, axis=1)
        rows = np.concatenate([rows, 1 - rows])
        order = np.lexsort(rows.T[::-1])
        return rows[order], np.arange(2).repeat(len(picks))[order]

    def agreement_masses(self, n: int, scale: int) -> tuple[int, np.ndarray]:
        """Integer numerators of (1 - q, q) / (scale * C), C the size of one
        proxy class, over ``den``, the lcm of their denominators; index 1 is
        a profile whose proxy bit is the state."""
        weights = [w / (scale * self._class_sizes(n)) for w in (1 - self.q, self.q)]
        den = math.lcm(*(w.denominator for w in weights))
        masses = [w.numerator * (den // w.denominator) for w in weights]
        return den, np.array(masses, dtype=weight_dtype(den))

    def outcome_space(self, n: int) -> OutcomeSpace:
        rows, proxies = self.bit_rows(n)
        den, agree = self.agreement_masses(n, 2)
        return OutcomeSpace((0, 1), rows, den, agree[1 - proxies], agree[proxies])

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
        high = self.ones_count(n, 1)
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

    def draw_statistic(self, rng, states: np.ndarray, n: int) -> np.ndarray:
        """The hidden proxy bit of each trial: the state w.p. q.  The
        profile, the bit on a uniformly random ``ones_count(n, 1)`` agents
        and its complement on the others, is not drawn."""
        return np.where(rng.random(len(states)) < float(self.q), states, 1 - states)

    def proxy_outcomes(self) -> tuple[np.ndarray, np.ndarray]:
        """Action codes and beliefs P(S = 1 | proxy bit), 1 - q and q, by the bit."""
        beliefs = (1 - self.q, self.q)
        return np.array([action_code(b) for b in beliefs], dtype=np.int8), np.array(beliefs, float)

    def trial_outcomes(self, n: int, kind: str) -> Callable:
        """Every protocol's (action codes, X) of the hidden proxy bits pi:
        their :meth:`proxy_outcomes`.  A profile's pi is 1 where it has
        ``ones_count(n, 1)`` ones.

        Proof.  S depends on the profile only through pi, so any belief is
        (1 - q) + (2q - 1) u, u = P(pi = 1 | I), and at n = 4 (q = 1/2) it is
        1/2.  Let q > 1/2.  Under public-action each agent first acts its bit
        (u = 3/4 or 1/4), which reveals pi.  The belief protocols end at a
        common belief v (step 1 of :func:`~agreelab.dynamics.decide_counts`'
        proof does not use independence).  On its event A, u is constant and
        each partition refines the agent's bit b_i, so P(pi = 1, b_i = 1, A)
        = u P(b_i = 1, A); summed over i, as the one-count is 3n/4 or n/4
        where pi is 1 or 0, 3a = u (3a + c) for a, c = P(pi = 1, A),
        P(pi = 0, A).  With a = u (a + c), ac = 0: u is pi on A.
        """
        codes, xs = self.proxy_outcomes()
        return lambda proxies: (codes[proxies], xs[proxies])

    def pooled_sampler(self, n: int) -> Callable:
        """The pooled posterior depends on the profile only through its
        proxy bit, which the profile's one-count reveals, so each trial
        draws the proxy bit and reports its :meth:`proxy_outcomes`, as the
        protocol runs do."""
        return statistic_draw(self, n, self.trial_outcomes(n, PUBLIC_BELIEF))


# ---------------------------------------------------------------------------
# two-bit combination: parity first bits, flip second bits
# ---------------------------------------------------------------------------


#: The two-bit signals (b1, b2), in the order of their symbols 2*b1 + b2.
SIGNAL_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class TwoBitCombo:
    """Each signal is a pair: parity-coupled first bit, flip-family second bit."""

    flip: ExchangeableFlip

    def pair_count(self, n: int) -> int:
        return 2 ** (n - 1) * self.flip.pair_count(n)

    def outcome_space(self, n: int) -> OutcomeSpace:
        """Parity rows of first bits crossed with flip rows of second bits;
        the signal (b1, b2) is the symbol 2*b1 + b2."""
        first = np.indices((2,) * n, dtype=np.uint8).reshape(n, -1).T
        second, proxies = self.flip.bit_rows(n)
        parities = first.sum(axis=1, dtype=np.intp) % 2
        symbols = (2 * first[:, None, :] + second).reshape(-1, n)
        order = np.lexsort(symbols.T[::-1])
        symbols, states = symbols[order], parities.repeat(len(second))[order]
        den, agree = self.flip.agreement_masses(n, 2**n)
        masses = agree[(parities[:, None] == proxies).ravel()[order].astype(np.intp)]
        w0, w1 = np.where(states == 0, masses, 0), np.where(states == 1, masses, 0)
        return OutcomeSpace(SIGNAL_PAIRS, symbols, den, w0, w1)

    def marginal_model(self, n: int) -> SignalModel | None:
        a1 = Fraction(1, 4) + self.flip.q / 2
        if a1 == Fraction(1, 2):
            return None
        half = Fraction(1, 2)
        mu1 = (half * (1 - a1), half * a1, half * (1 - a1), half * a1)
        mu0 = (half * a1, half * (1 - a1), half * a1, half * (1 - a1))
        return SignalModel(alphabet=SIGNAL_PAIRS, mu0=mu0, mu1=mu1)

    def draw_statistic(self, rng, states: np.ndarray, n: int) -> np.ndarray:
        """The flip's hidden proxy bit of the second bits; the first bits
        are not drawn."""
        return self.flip.draw_statistic(rng, states, n)

    def trial_outcomes(self, n: int, kind: str) -> Callable:
        """Every protocol's (action codes, X) of the second bits' proxy bits:
        the flip's.  A signal (b1, b2) is the symbol 2*b1 + b2.

        Proof.  For n >= 2 an agent's first bit is independent of the state
        and all second bits, so an agent knowing it and a function of the
        second bits believes and acts as the flip agent knowing that function
        alone.  By induction over the rounds every announcement is then a
        function of the second bits, and the partitions are the flip's, each
        crossed with the agent's first bit."""
        return self.flip.trial_outcomes(n, kind)

    def pooled_sampler(self, n: int) -> Callable:
        return _known_state_draw


# ---------------------------------------------------------------------------
# senate: a fixed committee pools its signals, everyone learns its action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SenateStaged(IidSignals):
    """Binary :class:`IidSignals` at a fixed accuracy; the first ``senate_size``
    agents pool their signals and the committee's optimal action is public
    initial information for everybody."""

    model: SignalModel = field(init=False, repr=False, compare=False)
    senate_size: int
    accuracy: Fraction

    def __post_init__(self):
        object.__setattr__(self, "model", SignalModel.binary(self.accuracy))

    def initial_partitions(self, space: OutcomeSpace) -> list[Partition]:
        """Members know the committee's signals, everyone else their own
        signal and the committee's verdict."""
        m = self.senate_size
        committee = trivial_partition(space).refine(joint_codes(space.symbols[:, :m].T)[0])
        verdict = self.trial_labels(space)
        return [committee] * m + [p.refine(verdict) for p in own_signal_partitions(space)[m:]]

    # -- exact committee arithmetic -------------------------------------

    def action_law(self) -> tuple[Fraction, Fraction, Fraction]:
        """``(success, tie, failure)`` of the committee's verdict: the pooled
        action's law (:func:`~agreelab.bounds.pooled_action_law`) of its
        ``senate_size`` signals, with no belief error built.  Each row of
        :func:`~agreelab.bounds.count_law` is its own class, its masses
        unreduced, summed as the blocks come: the law's sums are the
        likelihood classes', no row takes a gcd and no row is kept."""
        denominator, blocks = count_law(self.model, self.senate_size)
        rows = (((w0, w1), 1) for _counts, w0s, w1s in blocks for w0, w1 in zip(w0s, w1s))
        return pooled_action_law(denominator, rows)

    def deference_is_exact(self, law: tuple[Fraction, Fraction, Fraction] | None = None) -> bool:
        """True when a lone opposing signal can never flip the committee's
        verdict: the posterior given (committee action, worst own bit) stays
        strictly on the committee's side.  By state symmetry P(verdict 1 |
        S=1) and P(verdict 1 | S=0) are the committee's exact success and
        failure probabilities.  ``law`` is :meth:`action_law`'s triple,
        built when not given."""
        success, _tie, failure = self.action_law() if law is None else law
        acc = self.accuracy
        return success * (1 - acc) > failure * acc

    def check_deference(self, law: tuple[Fraction, Fraction, Fraction] | None = None) -> None:
        """Refuse public-action, or the committee's exact law, on a committee
        the other agents would not defer to: its verdict is then not the
        fixed point's action, in budget or past it.  ``law`` is passed on to
        :meth:`deference_is_exact`."""
        if not self.deference_is_exact(law):
            raise ScenarioParameterError(
                "committee too weak: agents would not defer, analytic fixed "
                "point unavailable"
            )

    def pooled_table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The pooled posterior's action code and X for n of the structure's
        binary signals, indexed by their number of ones: at ``senate_size``
        the committee's verdict and pooled belief."""
        ones = np.arange(n + 1)
        return decide_counts(self.model, PUBLIC_BELIEF, np.column_stack((n - ones, ones)))

    def trial_labels(self, space: OutcomeSpace) -> np.ndarray:
        """Trials are bucketed by the committee's own verdict: a split
        committee counts as a tie even though the continued announcements
        settle on some action.  One action code per profile of ``space``."""
        m = self.senate_size
        return self.pooled_table(m)[0][space.symbols[:, :m].sum(axis=1)]

    def draw_statistic(self, rng, states: np.ndarray, n: int) -> np.ndarray:
        """Each trial's ones among the committee's signals, then among the
        other agents': one binomial call each."""
        acc = float(self.accuracy)
        p_one = np.where(states == 1, acc, 1.0 - acc)
        m = self.senate_size
        return np.column_stack((rng.binomial(m, p_one), rng.binomial(n - m, p_one)))

    def trial_outcomes(self, n: int, kind: str) -> Callable:
        """The committee's verdict and X of each trial's two tallies: under
        public-action its pooled belief, at any n; under a belief protocol
        the pooled posterior of all n signals, where every agent ends as its
        partition refines its own signal
        (:func:`~agreelab.dynamics.decide_counts`).

        Under public-action the committee's action is already measurable for
        every agent, so on a committee the others defer to (which it needs)
        the fixed point is immediate and common.  A split committee is
        uninformative and the continued announcements aggregate the
        remaining signals instead, but its trials count as ties."""
        verdicts, committee = self.pooled_table(self.senate_size)
        if kind == PUBLIC_ACTION:
            self.check_deference()
            return lambda ones: (verdicts[ones[:, 0]], committee[ones[:, 0]])
        everyone = self.pooled_table(n)[1]
        return lambda ones: (verdicts[ones[:, 0]], everyone[ones.sum(axis=1)])


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
    if not isinstance(senate_size, int) or senate_size < 1:
        raise ScenarioParameterError(f"committee size must be a positive integer, got {senate_size}")
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


#: The deepest geometric tail whose largest weight e^(K/2) is a finite float.
MAX_TAIL_DEPTH = int(2 * math.log(sys.float_info.max))


def geometric_tail_model(depth: int, ratio) -> SignalModel:
    """Mirrored geometric model with log-likelihood ratios +-1 .. +-depth.

    Weight of value k under state 1 is proportional to ratio^|k| e^{k/2};
    state 0 mirrors k to -k.  The e^{k/2} factors enter as exact dyadic
    rationals, so weights stay exact while the realized log-likelihood
    ratios equal the integers k to float precision.  With ratio = a/b and
    e^{k/2} = p_k/q_k, q_k a power of two, every weight is an integer over
    the common denominator b^depth max(q): a^|k| b^(depth - |k|) p_k
    (max(q) / q_k), each divided by their total once.
    """
    if depth < 1:
        raise ScenarioParameterError("tail depth must be at least 1")
    if depth > MAX_TAIL_DEPTH:
        raise ScenarioParameterError(
            f"tail depth must be at most {MAX_TAIL_DEPTH}, past which e^(K/2) overflows a float"
        )
    r = as_weight(ratio)
    if not 0 < r < 1:
        raise ScenarioParameterError("tail ratio must lie in (0, 1)")
    symbols = [k for k in range(-depth, depth + 1) if k != 0]
    a, b = r.numerator, r.denominator
    exps = {k: math.exp(k / 2.0).as_integer_ratio() for k in symbols}
    scale = max(q for _p, q in exps.values())
    raw = {k: a ** abs(k) * b ** (depth - abs(k)) * p * (scale // q) for k, (p, q) in exps.items()}
    total = sum(raw.values())
    mu1 = tuple(Fraction(raw[k], total) for k in symbols)
    mu0 = tuple(Fraction(raw[-k], total) for k in symbols)
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


_PARAM_ALIASES = {"K": "depth"}


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
