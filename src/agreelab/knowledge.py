"""Finite outcome spaces, information partitions and knowledge predicates.

The state space is the set of (state, signal-profile) pairs with exact
rational prior weights.  Sigma-algebras are represented as partitions of the
positive-weight profiles, which is lossless on finite spaces; every
"almost surely" clause becomes "on every positive-weight block".

The engine runs on integers.  A space is its symbol matrix, one row of
alphabet indices per profile (profile tuples are derived only on demand,
and :meth:`OutcomeSpace.position` finds one), and the two states' weights as
integer numerators over one common denominator.  A partition is nothing but
a vector of block labels over those rows, numbered by first occurrence, so
equal partitions have equal label vectors.  Random variables are integer
codes, one per profile: equal codes mean equal values.  An announcement
becomes such codes, read off each block's exact masses: a belief codes their
gcd-reduced ratio, an action set the sign of its summed margin ``w1 - w0``.
A refinement writes each profile's code to its block and reads it back: when
every profile reads back its own, nothing splits; otherwise it relabels the
(label, code) pairs (:func:`dense_codes`), counting when their range is
narrow and sorting when it is wide.  Common knowledge of some variables is
the same test: their codes split no agent's partition
(:func:`is_common_knowledge`).  Sums are ``int64`` when the common
denominator fits in it, since no block sum exceeds the total mass, and
Python ints otherwise.  Beliefs leave the engine as exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .bounds import DEFAULT_ENUMERATION_BUDGET, integer_weights
from .errors import EnumerationBudgetError, NullConditioningError
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


def weight_dtype(den: int):
    """``int64`` when every sum of masses over ``den`` fits in it."""
    return np.int64 if den < INT64_LIMIT else object


class OutcomeSpace:
    """Weighted enumeration of (state, profile) outcomes, in integer form.

    ``symbols`` has one row per positive-weight profile, each agent's signal
    as its index in ``alphabet``, and the rows are in lexicographic order;
    its column count is the agent count ``n``.  ``w0`` / ``w1`` are
    the two states' masses per profile, non-negative integer numerators over
    ``den`` with exactly ``den / 2`` on each state, and ``margin`` is
    ``w1 - w0``.  Each structure builds its own space in this form, the one
    the library reads; the profile tuples, ``profiles``, and ``weights`` are
    derived from it on first use, for exact laws and messages.
    """

    def __init__(self, alphabet: Sequence, symbols: np.ndarray, den: int, w0, w1):
        dtype = weight_dtype(den)
        w0, w1 = np.asarray(w0, dtype=dtype), np.asarray(w1, dtype=dtype)
        if w0.min(initial=0) < 0 or w1.min(initial=0) < 0:
            raise ValueError("outcome masses must be non-negative")
        if 2 * int(w0.sum()) != den or 2 * int(w1.sum()) != den:
            raise ValueError("each state must carry prior weight exactly 1/2")
        self.n = symbols.shape[1]
        self.alphabet = tuple(alphabet)
        self.symbols = symbols
        self.den = den
        self.w0 = w0
        self.w1 = w1

    @classmethod
    def iid(cls, model: SignalModel, n: int) -> "OutcomeSpace":
        """Product space of n conditionally i.i.d. signals over
        ``model.support``, weight 1/2 * prod mu_s."""
        den, pairs = integer_weights(model)
        total = 2 * den**n
        dtype = weight_dtype(total)
        masses = []
        for weights in zip(*pairs):
            per_symbol = np.array(weights, dtype=dtype)
            w = np.ones(1, dtype=dtype)
            for _ in range(n):
                w = np.multiply.outer(w, per_symbol).ravel()
            masses.append(w)
        symbols = np.indices((len(pairs),) * n, dtype=np.min_scalar_type(len(pairs)))
        return cls(model.support, symbols.reshape(n, -1).T, total, *masses)

    @cached_property
    def margin(self) -> np.ndarray:
        return self.w1 - self.w0

    def profile(self, i: int) -> Profile:
        """The profile tuple of signal values at position ``i``."""
        return tuple(map(self.alphabet.__getitem__, self.symbols[i].tolist()))

    @cached_property
    def profiles(self) -> tuple[Profile, ...]:
        """Every profile tuple, in position order."""
        values = np.fromiter(self.alphabet, dtype=object, count=len(self.alphabet))
        return tuple(map(tuple, values[self.symbols].tolist()))

    @cached_property
    def weights(self) -> dict[tuple[int, Profile], Fraction]:
        """(state, profile) -> Fraction weight of the positive pairs."""
        return {
            (state, profile): Fraction(w, self.den)
            for state, masses in ((0, self.w0), (1, self.w1))
            for profile, w in zip(self.profiles, masses.tolist())
            if w
        }

    def __len__(self) -> int:
        return int(np.count_nonzero(self.w0)) + int(np.count_nonzero(self.w1))

    @cached_property
    def _keys(self) -> np.ndarray:
        """Each row's mixed-radix key in base ``len(alphabet)``: increasing,
        and within ``int64`` for any space that fits in memory."""
        keys = np.zeros(len(self.symbols), dtype=np.int64)
        for column in self.symbols.T:
            keys = keys * len(self.alphabet) + column
        return keys

    def position(self, profile) -> int | None:
        """Position of a profile tuple of signal values; None if it has zero weight."""
        if not isinstance(profile, tuple) or len(profile) != self.n:
            return None
        key = 0
        try:
            for value in profile:
                key = key * len(self.alphabet) + self.alphabet.index(value)
        except ValueError:  # a value outside the alphabet
            return None
        found = int(self._keys.searchsorted(key))
        return found if found < len(self._keys) and self._keys[found] == key else None


def _same_profiles(a: OutcomeSpace, b: OutcomeSpace) -> bool:
    """Whether two spaces range over the same profiles."""
    return a is b or (a.alphabet == b.alphabet and np.array_equal(a.symbols, b.symbols))


def check_pair_budget(pairs: int, label: str = "") -> None:
    """Refuse more (state, profile) pairs than the exact engine's budget,
    with :class:`EnumerationBudgetError` (its message led by ``label``)."""
    if pairs > DEFAULT_ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"{label + ': ' if label else ''}{pairs} (state, profile) pairs exceed the "
            f"exact-engine budget {DEFAULT_ENUMERATION_BUDGET}"
        )


def outcome_space_iid(model: SignalModel, n: int) -> OutcomeSpace:
    """Product space for conditionally i.i.d. signals, weight = 1/2 * prod mu_s,
    over the model's support."""
    check_pair_budget(2 * len(model.support) ** n)
    return OutcomeSpace.iid(model, n)


class Partition:
    """A partition of a space's positive-weight profiles, canonically ordered.

    ``labels[i]`` is the block of the profile at position ``i`` of
    ``space``, blocks numbered by first occurrence (so by their first
    row).
    """

    __slots__ = ("space", "labels", "block_count")

    def __init__(self, space: OutcomeSpace, labels: np.ndarray):
        self.space = space
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
        return Partition(self.space, dense_codes(self.labels * width + codes)[0])

    def refine_by_key(self, key: Callable[[Profile], Hashable]) -> "Partition":
        """Coarsest common refinement with the preimage partition of ``key``,
        a function of the profile tuple.  The library refines on codes
        (:meth:`refine`); the benchmark's tracer still reads this method."""
        seen: dict = {}
        codes = np.fromiter(
            (seen.setdefault(key(p), len(seen)) for p in self.space.profiles),
            dtype=np.int64,
            count=len(self.labels),
        )
        return self.refine(codes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Partition)
            and self.block_count == other.block_count
            and _same_profiles(self.space, other.space)
            and np.array_equal(self.labels, other.labels)
        )

    def __hash__(self) -> int:
        return hash((self.block_count, self.labels.tobytes()))

    def __repr__(self) -> str:
        return f"Partition({self.block_count} blocks)"


def trivial_partition(space: OutcomeSpace) -> Partition:
    """The one-block partition of the space's profiles."""
    return Partition(space, np.zeros(len(space.symbols), dtype=np.int64))


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
        if not _same_profiles(partition.space, space):
            raise ValueError(f"agent {u} partition does not cover the positive-weight profiles")
        if partition.refine(space.symbols[:, u]) is not partition:
            raise ValueError(f"agent {u} partition is coarser than its own signal")


def block_sums(space: OutcomeSpace, partition: Partition, *columns: np.ndarray) -> list:
    """Per block, the sum of each per-profile integer column in its dtype:
    ``space.w0`` and ``space.w1`` give the states' masses over ``space.den``."""
    if not _same_profiles(partition.space, space):
        raise ValueError("partition is not over the space's positive-weight profiles")
    sums = [np.zeros(partition.block_count, dtype=column.dtype) for column in columns]
    for total, column in zip(sums, columns):
        np.add.at(total, partition.labels, column)
    return sums


def action_codes(margin: np.ndarray) -> np.ndarray:
    """Codes in :data:`ACTION_SETS` of the optimal actions given the margins
    ``ones - zeros`` of masses: a belief exceeds 1/2 iff its margin is positive."""
    return np.where(margin > 0, 1, np.where(margin < 0, 0, TIE))


def reduced_ratios(ones: np.ndarray, total: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each ``ones / total`` as its gcd-reduced numerator and denominator."""
    common = np.gcd(ones, total)
    return ones // common, total // common


def block_beliefs(space: OutcomeSpace, partition: Partition) -> tuple[np.ndarray, list[Fraction]]:
    """Exact posteriors of a partition's blocks, as codes into distinct values.

    Returns ``(codes, values)``: block ``b`` has belief ``values[codes[b]]``.
    Blocks share a code iff their beliefs are equal, since the codes number
    the gcd-reduced (numerator, denominator) pairs of the blocks' integer
    masses.
    """
    zeros, ones = block_sums(space, partition, space.w0, space.w1)
    num, den = reduced_ratios(ones, zeros + ones)
    codes, first = joint_codes((num, den))
    values = [Fraction(int(num[b]), int(den[b])) for b in first.tolist()]
    return codes, values


def pooled_posterior(space: OutcomeSpace, profile: Profile) -> Fraction:
    """Exact P(S=1 | the full signal profile)."""
    i = space.position(profile)
    if i is None:
        raise NullConditioningError(f"profile {profile!r} has zero weight")
    ones = int(space.w1[i])
    return Fraction(ones, ones + int(space.w0[i]))


def _profile_function(partition: Partition, block_values: list) -> Callable:
    space, labels = partition.space, partition.labels.tolist()

    def value(profile: Profile):
        i = space.position(profile)
        if i is None:
            raise KeyError(profile)
        return block_values[labels[i]]

    return value


def belief_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], Fraction]:
    """Profile-indexed posterior of one agent, constant on each block.

    The library reads beliefs as codes (:func:`block_beliefs`); this
    per-profile read-out is kept for the benchmark's exact laws."""
    codes, values = block_beliefs(space, partition)
    return _profile_function(partition, [values[c] for c in codes.tolist()])


def action_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], frozenset]:
    """Profile-indexed optimal action set of one agent, the sign of each
    block's summed margin (:func:`action_codes`).  The library reads actions
    as codes; this per-profile read-out is kept for the benchmark's tracer."""
    codes = action_codes(*block_sums(space, partition, space.margin))
    return _profile_function(partition, [ACTION_SETS[c] for c in codes.tolist()])


def is_common_knowledge(partitions: Sequence[Partition], codes: Iterable[np.ndarray]) -> bool:
    """True iff every variable is known to every agent: each per-profile
    code array (equal codes for equal values) is constant on every block of
    every partition, so refining by it splits nothing."""
    distinct = {id(p): p for p in partitions}.values()
    return all(p.refine(c) is p for c in {id(c): c for c in codes}.values() for p in distinct)
