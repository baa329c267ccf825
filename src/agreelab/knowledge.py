"""Finite outcome spaces, information partitions and knowledge predicates.

The state space is the set of (state, signal-profile) pairs with exact
rational prior weights.  Sigma-algebras are represented as partitions of the
positive-weight profiles, which is lossless on finite spaces; every
"almost surely" clause becomes "on every positive-weight block".

The engine runs on integers.  A space keeps its profiles in sorted order,
each agent's symbol as an integer code, and the two states' weights as
integer numerators over one common denominator.  A partition is nothing but
a vector of block labels over those profiles, numbered by first occurrence,
so equal partitions have equal label vectors.  Random variables are integer
codes, one per profile: equal codes mean equal values.  An announcement
becomes such codes, read off each block's exact masses: a belief codes
their gcd-reduced ratio, an action set the sign of ``ones - zeros``.  A
refinement writes each profile's code to its block and reads it back: when
every profile reads back its own, nothing splits; otherwise it relabels the
(label, code) pairs (:func:`dense_codes`), counting when their range is
narrow and sorting when it is wide.  Common knowledge of some variables is
the same test: their codes split no agent's partition
(:func:`is_common_knowledge`).  Sums are ``int64`` when the common
denominator fits in it, since no block sum exceeds the total mass, and
Python ints otherwise.  Beliefs leave the engine as exact Fractions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .bounds import DEFAULT_ENUMERATION_BUDGET, integer_weights
from .errors import AgreementLabError, EnumerationBudgetError, NullConditioningError
from .signals import SignalModel

Profile = tuple

ACTION_ZERO = frozenset({0})
ACTION_ONE = frozenset({1})
ACTION_BOTH = frozenset({0, 1})
#: Action sets by the integer code the Monte Carlo arrays hold: a
#: singleton's code is its state, the undecided {0,1} is ``TIE``.
ACTION_SETS = (ACTION_ZERO, ACTION_ONE, ACTION_BOTH)
TIE = 2

INT64_LIMIT = 2**63


def optimal_action_set(belief) -> frozenset:
    """{0}, {1} or {0,1} according to belief below, above or exactly one half.

    Exact when the belief is a Fraction; ties on floats are only as exact as
    the float itself.
    """
    half = Fraction(1, 2)
    if belief < half:
        return ACTION_ZERO
    if belief > half:
        return ACTION_ONE
    return ACTION_BOTH


def action_code(belief) -> int:
    """The code in :data:`ACTION_SETS` of :func:`optimal_action_set`."""
    return ACTION_SETS.index(optimal_action_set(belief))


def dense_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Relabel ``keys``, non-negative integers, 0, 1, ... in order of first
    occurrence.

    Returns the new labels and, per label, the position of its first
    occurrence (so those positions increase with the label).  Keys whose
    range is at most ``4 * len(keys) + 64`` are counted: each value's first
    position is a minimum taken in a table over the range, and no key is
    sorted.  Wider keys are first ranked among their distinct values
    (``np.unique``).
    """
    span = int(keys.max(initial=0)) + 1
    if span > 4 * len(keys) + 64:
        distinct, keys = np.unique(keys, return_inverse=True)
        span = len(distinct)
    first = np.full(span, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, np.arange(len(keys)))
    first = np.sort(first[first < len(keys)])
    rank = np.empty(span, dtype=np.int64)
    rank[keys[first]] = np.arange(len(first))
    return rank[keys], first


def joint_codes(columns: Iterable[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dense_codes` of the per-profile tuples of several code columns.

    Each column holds non-negative integers; columns are folded into one
    key, in ``int64`` unless a column holds Python ints, and the key and the
    next column are replaced by their ranks among their distinct values
    whenever the fold could overflow ``int64``.
    """
    joint, count = None, 1
    for codes in columns:
        width = int(codes.max(initial=0)) + 1
        if joint is None:
            joint = codes if codes.dtype == object else codes.astype(np.int64, copy=False)
            count = width
            continue
        if count * width >= INT64_LIMIT:
            joint = np.unique(joint, return_inverse=True)[1]
            count = int(joint.max(initial=0)) + 1
        if count * width >= INT64_LIMIT:
            codes = np.unique(codes, return_inverse=True)[1]
            width = int(codes.max(initial=0)) + 1
        joint = joint * width + codes
        count *= width
    # Python-int columns fold into object arrays, but the fold fits in int64.
    return dense_codes(joint.astype(np.int64, copy=False))


class Profiles(tuple):
    """Profiles in sorted order; ``index`` maps each to its position."""

    @cached_property
    def index(self) -> dict:
        return {profile: i for i, profile in enumerate(self)}


def _same_profiles(a, b) -> bool:
    """Whether two spaces or partitions range over the same profiles."""
    return a.profiles is b.profiles or a.profiles == b.profiles


def _weight_dtype(den: int):
    """``int64`` when every sum of masses over ``den`` fits in it."""
    return np.int64 if den < INT64_LIMIT else object


class OutcomeSpace:
    """Weighted enumeration of (state, profile) outcomes.

    ``weights`` maps (state, profile) to a positive Fraction; pairs that are
    absent carry zero weight.  Weights must total exactly one with exactly
    one half on each state.  The engine reads the integer form:
    ``profiles`` (the positive-weight profiles, sorted), ``symbols`` (each
    agent's symbol as its rank among that agent's symbols, one row per
    profile, so the rows sort like the profiles) and ``w0`` /
    ``w1`` (per profile, the numerators of the two states' weights over
    ``den``).  ``weights`` is built on first use when the space was built
    straight into that form; the library reads only the integer form, and
    the benchmark's exact laws read ``weights``.
    """

    __slots__ = ("n", "profiles", "symbols", "den", "w0", "w1", "_weights")

    def __init__(self, n: int, weights: Mapping[tuple[int, Profile], Fraction]):
        cleaned: dict[tuple[int, Profile], Fraction] = {}
        state_totals = [Fraction(0), Fraction(0)]
        for (state, profile), w in weights.items():
            w = Fraction(w)
            if w < 0:
                raise ValueError("outcome weights must be non-negative")
            if w == 0:
                continue
            if state not in (0, 1):
                raise ValueError("state must be 0 or 1")
            if len(profile) != n:
                raise ValueError("profile length must equal the agent count")
            cleaned[(state, profile)] = w
            state_totals[state] += w
        if state_totals[0] + state_totals[1] != 1:
            raise ValueError("outcome weights must sum to exactly 1")
        if state_totals[0] != Fraction(1, 2) or state_totals[1] != Fraction(1, 2):
            raise ValueError("each state must carry prior weight exactly 1/2")
        profiles = Profiles(sorted({profile for _, profile in cleaned}))
        den = math.lcm(*(w.denominator for w in cleaned.values()))
        masses = ([0] * len(profiles), [0] * len(profiles))
        for (state, profile), w in cleaned.items():
            masses[state][profiles.index[profile]] = w.numerator * (den // w.denominator)
        ranks = [
            {s: r for r, s in enumerate(sorted({p[u] for p in profiles}))} for u in range(n)
        ]
        symbols = np.array(
            [[ranks[u][p[u]] for u in range(n)] for p in profiles], dtype=np.int64
        ).reshape(len(profiles), n)
        symbols = symbols.astype(np.min_scalar_type(symbols.max(initial=0)))
        self._fill(n, profiles, symbols, den, *masses)
        self._weights = cleaned

    @classmethod
    def iid(cls, model: SignalModel, n: int) -> "OutcomeSpace":
        """Product space of n conditionally i.i.d. signals, weight
        1/2 * prod mu_s, built straight into the integer form."""
        den, pairs = integer_weights(model)
        order = sorted(range(len(pairs)), key=lambda i: model.support[i])
        total = 2 * den**n
        dtype = _weight_dtype(total)
        masses = []
        for state in (0, 1):
            per_symbol = np.array([pairs[i][state] for i in order], dtype=dtype)
            w = np.ones(1, dtype=dtype)
            for _ in range(n):
                w = np.multiply.outer(w, per_symbol).ravel()
            masses.append(w)
        symbols = np.indices((len(order),) * n, dtype=np.min_scalar_type(len(order)))
        symbols = symbols.reshape(n, -1).T
        support = [model.support[i] for i in order]
        space = cls.__new__(cls)
        space._fill(n, Profiles(itertools.product(support, repeat=n)), symbols, total, *masses)
        space._weights = None
        return space

    def _fill(self, n, profiles, symbols, den, w0, w1) -> None:
        self.n = n
        self.profiles = profiles
        self.symbols = symbols
        self.den = den
        self.w0 = np.asarray(w0, dtype=_weight_dtype(den))
        self.w1 = np.asarray(w1, dtype=_weight_dtype(den))

    @property
    def weights(self) -> dict[tuple[int, Profile], Fraction]:
        if self._weights is None:
            self._weights = {
                (state, profile): Fraction(w, self.den)
                for state, masses in ((0, self.w0), (1, self.w1))
                for profile, w in zip(self.profiles, masses.tolist())
                if w
            }
        return self._weights

    def __len__(self) -> int:
        return int(np.count_nonzero(self.w0)) + int(np.count_nonzero(self.w1))


def profile_indexer(space: OutcomeSpace) -> Callable[[np.ndarray], np.ndarray]:
    """Map rows of symbol ranks, as in ``space.symbols``, to profile positions.

    Rows fold into mixed-radix integer keys.  The space's keys increase
    along its sorted profiles, so a batch of rows is one ``searchsorted``.
    """
    widths = [int(w) for w in space.symbols.max(axis=0, initial=0) + 1]
    if math.prod(widths) >= INT64_LIMIT:
        raise EnumerationBudgetError("profile keys of this space do not fit in int64")
    place = np.array([math.prod(widths[u + 1 :]) for u in range(space.n)], dtype=np.int64)
    keys = space.symbols.astype(np.int64) @ place

    def index(rows: np.ndarray) -> np.ndarray:
        wanted = rows.astype(np.int64) @ place
        found = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        if not np.array_equal(keys[found], wanted):
            raise AgreementLabError("a sampled profile has zero weight in the space")
        return found

    return index


def outcome_space_iid(model: SignalModel, n: int) -> OutcomeSpace:
    """Product space for conditionally i.i.d. signals, weight = 1/2 * prod mu_s,
    over the model's support."""
    size = 2 * len(model.support) ** n
    if size > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{size} (state, profile) pairs exceed the exact-engine budget "
            f"{DEFAULT_ENUMERATION_BUDGET}"
        )
    return OutcomeSpace.iid(model, n)


class Partition:
    """A partition of the positive-weight profiles, canonically ordered.

    ``labels[i]`` is the block of ``profiles[i]``, blocks numbered by first
    occurrence (so by their least profile).
    """

    __slots__ = ("profiles", "labels", "block_count")

    def __init__(self, profiles: Profiles, labels: np.ndarray):
        self.profiles = profiles
        self.labels = labels
        self.block_count = int(labels.max(initial=-1)) + 1

    def refine(self, codes: np.ndarray) -> "Partition":
        """Coarsest common refinement with the partition into equal ``codes``
        (one non-negative integer per profile); ``self`` when nothing splits:
        when each profile reads its code back from its block, whichever
        profile's write to the block won."""
        seen = np.empty(self.block_count, dtype=codes.dtype)
        seen[self.labels] = codes
        if np.array_equal(seen[self.labels], codes):
            return self
        width = int(codes.max(initial=0)) + 1
        return Partition(self.profiles, dense_codes(self.labels * width + codes)[0])

    def refine_by_key(self, key: Callable[[Profile], Hashable]) -> "Partition":
        """Coarsest common refinement with the preimage partition of ``key``,
        a function of the profile tuple.  The library refines on codes
        (:meth:`refine`); the benchmark's tracer still reads this method."""
        seen: dict = {}
        codes = np.fromiter(
            (seen.setdefault(key(p), len(seen)) for p in self.profiles),
            dtype=np.int64,
            count=len(self.profiles),
        )
        return self.refine(codes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.block_count == other.block_count
            and _same_profiles(self, other)
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self) -> int:
        return hash((self.block_count, self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Partition({self.block_count} blocks)"


def _labels_on(space: OutcomeSpace, partition: Partition) -> np.ndarray:
    """The partition's labels, checked to be over the space's profiles."""
    if not _same_profiles(partition, space):
        raise ValueError("partition is not over the space's positive-weight profiles")
    return partition.labels


def trivial_partition(space: OutcomeSpace) -> Partition:
    """The one-block partition of the space's profiles."""
    return Partition(space.profiles, np.zeros(len(space.profiles), dtype=np.int64))


def own_signal_partitions(space: OutcomeSpace) -> list[Partition]:
    """Default initial information: each agent observes exactly its own signal."""
    everything = trivial_partition(space)
    return [everything.refine(space.symbols[:, u]) for u in range(space.n)]


def validate_partitions(space: OutcomeSpace, partitions: Sequence[Partition]) -> None:
    """Check the well-formedness of per-agent information.

    Every partition must cover exactly the positive-weight profiles and be
    at least as fine as the owner's own-signal partition (each agent always
    knows its own signal).
    """
    if len(partitions) != space.n:
        raise ValueError("need one partition per agent")
    for u, partition in enumerate(partitions):
        if not _same_profiles(partition, space):
            raise ValueError(
                f"agent {u} partition does not cover the positive-weight profiles"
            )
        if partition.refine(space.symbols[:, u]) is not partition:
            raise ValueError(f"agent {u} partition is coarser than its own signal")


def block_masses(space: OutcomeSpace, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Per block, the integer masses of state 0 and of state 1 over ``space.den``."""
    labels = _labels_on(space, partition)
    zeros = np.zeros(partition.block_count, dtype=space.w0.dtype)
    ones = np.zeros(partition.block_count, dtype=space.w1.dtype)
    np.add.at(zeros, labels, space.w0)
    np.add.at(ones, labels, space.w1)
    return zeros, ones


def action_codes(zeros: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """Codes in :data:`ACTION_SETS` of the optimal actions given the states'
    masses: belief ``ones / (zeros + ones)`` exceeds 1/2 iff ``ones > zeros``."""
    return np.where(ones > zeros, 1, np.where(ones < zeros, 0, TIE))


def block_beliefs(space: OutcomeSpace, partition: Partition) -> tuple[np.ndarray, list[Fraction]]:
    """Exact posteriors of a partition's blocks, as codes into distinct values.

    Returns ``(codes, values)``: block ``b`` has belief ``values[codes[b]]``.
    Blocks share a code iff their beliefs are equal, since the codes number
    the gcd-reduced (numerator, denominator) pairs of the blocks' integer
    masses.
    """
    zeros, ones = block_masses(space, partition)
    total = zeros + ones
    common = np.gcd(ones, total)
    num, den = ones // common, total // common
    codes, first = joint_codes((num, den))
    values = [Fraction(int(num[b]), int(den[b])) for b in first.tolist()]
    return codes, values


def pooled_posterior(space: OutcomeSpace, profile: Profile) -> Fraction:
    """Exact P(S=1 | the full signal profile)."""
    i = space.profiles.index.get(profile)
    if i is None:
        raise NullConditioningError(f"profile {profile!r} has zero weight")
    ones = int(space.w1[i])
    return Fraction(ones, ones + int(space.w0[i]))


def _profile_function(partition: Partition, block_values: list) -> Callable:
    index, labels = partition.profiles.index, partition.labels.tolist()

    def value(profile: Profile):
        return block_values[labels[index[profile]]]

    return value


def belief_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], Fraction]:
    """Profile-indexed posterior of one agent, constant on each block.

    The library reads beliefs as codes (:func:`block_beliefs`); this
    per-profile read-out is kept for the benchmark's exact laws."""
    codes, values = block_beliefs(space, partition)
    return _profile_function(partition, [values[c] for c in codes.tolist()])


def action_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], frozenset]:
    """Profile-indexed optimal action set of one agent, read off the signs of
    its blocks' masses (:func:`action_codes`).  The library reads actions
    as codes; this per-profile read-out is kept for the benchmark's tracer."""
    codes = action_codes(*block_masses(space, partition))
    return _profile_function(partition, [ACTION_SETS[c] for c in codes.tolist()])


def is_common_knowledge(partitions: Sequence[Partition], codes: Iterable[np.ndarray]) -> bool:
    """True iff every variable is known to every agent: each per-profile
    code array (equal codes for equal values) is constant on every block of
    every partition, so refining by it splits nothing."""
    return all(p.refine(c) is p for c in codes for p in partitions)
