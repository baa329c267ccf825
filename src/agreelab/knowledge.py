"""Finite outcome spaces, information partitions and knowledge predicates.

The state space is the set of (state, signal-profile) pairs with exact
rational prior weights.  Sigma-algebras are represented as partitions of the
positive-weight profiles, which is lossless on finite spaces; every
"almost surely" clause becomes "on every positive-weight block".
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .errors import (
    EnumerationBudgetError,
    MeasurabilityError,
    NullConditioningError,
)
from .signals import SignalModel

Profile = tuple
PUBLIC = "public"

#: Exact engine refusal threshold on the number of (state, profile) pairs.
DEFAULT_ENUMERATION_BUDGET = 2**24

ACTION_ZERO = frozenset({0})
ACTION_ONE = frozenset({1})
ACTION_BOTH = frozenset({0, 1})


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


class OutcomeSpace:
    """Weighted enumeration of (state, profile) outcomes.

    ``weights`` maps (state, profile) to a positive Fraction; pairs that are
    absent carry zero weight.  Weights must total exactly one with exactly
    one half on each state.
    """

    __slots__ = ("n", "profiles", "weights", "_profile_weight", "_state1_weight")

    def __init__(self, n: int, weights: Mapping[tuple[int, Profile], Fraction]):
        cleaned: dict[tuple[int, Profile], Fraction] = {}
        profile_weight: dict[Profile, Fraction] = {}
        state1_weight: dict[Profile, Fraction] = {}
        state_totals = {0: Fraction(0), 1: Fraction(0)}
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
            profile_weight[profile] = profile_weight.get(profile, Fraction(0)) + w
            if state == 1:
                state1_weight[profile] = state1_weight.get(profile, Fraction(0)) + w
            state_totals[state] += w
        if state_totals[0] + state_totals[1] != 1:
            raise ValueError("outcome weights must sum to exactly 1")
        if state_totals[0] != Fraction(1, 2) or state_totals[1] != Fraction(1, 2):
            raise ValueError("each state must carry prior weight exactly 1/2")
        self.n = n
        self.weights = cleaned
        self.profiles = tuple(sorted(profile_weight))
        self._profile_weight = profile_weight
        self._state1_weight = state1_weight

    def profile_weight(self, profile: Profile) -> Fraction:
        return self._profile_weight.get(profile, Fraction(0))

    def state1_weight(self, profile: Profile) -> Fraction:
        return self._state1_weight.get(profile, Fraction(0))

    def __len__(self) -> int:
        return len(self.weights)


def outcome_space_iid(
    model: SignalModel, n: int, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> OutcomeSpace:
    """Product space for conditionally i.i.d. signals, weight = 1/2 * prod mu_s."""
    size = 2 * len(model.alphabet) ** n
    if size > budget:
        raise EnumerationBudgetError(
            f"{size} (state, profile) pairs exceed the exact-engine budget {budget}"
        )
    weights: dict[tuple[int, Profile], Fraction] = {}
    half = Fraction(1, 2)
    for state, mu in ((0, model.mu0), (1, model.mu1)):
        per_symbol = dict(zip(model.alphabet, mu))
        for profile in itertools.product(model.support, repeat=n):
            w = half
            for symbol in profile:
                w *= per_symbol[symbol]
            if w > 0:
                weights[(state, profile)] = w
    return OutcomeSpace(n, weights)


class Partition:
    """A partition of the positive-weight profiles, canonically ordered."""

    __slots__ = ("blocks", "_block_of")

    def __init__(self, blocks: Iterable[frozenset]):
        blocks = [frozenset(b) for b in blocks if b]
        blocks.sort(key=min)
        self.blocks = tuple(blocks)
        block_of: dict[Profile, int] = {}
        for i, block in enumerate(self.blocks):
            for profile in block:
                if profile in block_of:
                    raise ValueError("partition blocks must be disjoint")
                block_of[profile] = i
        self._block_of = block_of

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def block_of(self, profile: Profile) -> frozenset:
        try:
            return self.blocks[self._block_of[profile]]
        except KeyError:
            raise KeyError(f"profile {profile!r} not covered by the partition") from None

    def covers(self, profiles: Iterable[Profile]) -> bool:
        return all(p in self._block_of for p in profiles)

    def refine_by_key(self, key: Callable[[Profile], Hashable]) -> "Partition":
        """Coarsest common refinement with the preimage partition of ``key``."""
        pieces: dict[tuple[int, Hashable], set] = {}
        for profile, i in self._block_of.items():
            pieces.setdefault((i, key(profile)), set()).add(profile)
        if len(pieces) == len(self.blocks):
            return self
        return Partition(pieces.values())

    def refines(self, other: "Partition") -> bool:
        """True when every block of self sits inside one block of other."""
        for block in self.blocks:
            targets = {other._block_of.get(p) for p in block}
            if len(targets) != 1 or None in targets:
                return False
        return True

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __hash__(self) -> int:
        return hash(self.blocks)

    def __repr__(self) -> str:
        return f"Partition({self.block_count} blocks)"


def own_signal_partitions(space: OutcomeSpace) -> list[Partition]:
    """Default initial information: each agent observes exactly its own signal."""
    everything = Partition([frozenset(space.profiles)])
    return [
        everything.refine_by_key(lambda profile, u=u: profile[u])
        for u in range(space.n)
    ]


def validate_partitions(space: OutcomeSpace, partitions: Sequence[Partition]) -> None:
    """Check the well-formedness of per-agent information.

    Every partition must cover exactly the positive-weight profiles and be
    at least as fine as the owner's own-signal partition (each agent always
    knows its own signal).
    """
    if len(partitions) != space.n:
        raise ValueError("need one partition per agent")
    profile_set = set(space.profiles)
    for u, partition in enumerate(partitions):
        covered = set().union(*partition.blocks) if partition.blocks else set()
        if covered != profile_set:
            raise ValueError(
                f"agent {u} partition does not cover the positive-weight profiles"
            )
        for block in partition.blocks:
            if len({profile[u] for profile in block}) != 1:
                raise ValueError(
                    f"agent {u} partition is coarser than its own signal"
                )


def posterior_belief(space: OutcomeSpace, block: Iterable[Profile]) -> Fraction:
    """Exact P(S=1 | block) = weight(S=1, block) / weight(block)."""
    total = Fraction(0)
    ones = Fraction(0)
    for profile in block:
        total += space.profile_weight(profile)
        ones += space.state1_weight(profile)
    if total == 0:
        raise NullConditioningError("cannot condition on a zero-weight block")
    return ones / total


def pooled_posterior(space: OutcomeSpace, profile: Profile) -> Fraction:
    """Exact P(S=1 | the full signal profile)."""
    total = space.profile_weight(profile)
    if total == 0:
        raise NullConditioningError(f"profile {profile!r} has zero weight")
    return space.state1_weight(profile) / total


def belief_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], Fraction]:
    """Profile-indexed posterior of one agent, constant on each block."""
    values = {block: posterior_belief(space, block) for block in partition.blocks}

    def belief(profile: Profile) -> Fraction:
        return values[partition.block_of(profile)]

    return belief


def action_function(space: OutcomeSpace, partition: Partition) -> Callable[[Profile], frozenset]:
    """Profile-indexed optimal action set of one agent."""
    values = {
        block: optimal_action_set(posterior_belief(space, block))
        for block in partition.blocks
    }

    def action(profile: Profile) -> frozenset:
        return values[partition.block_of(profile)]

    return action


def refine_by_announcement(
    space: OutcomeSpace,
    partitions: Sequence[Partition],
    announcements: Mapping[int, Callable[[Profile], Hashable]],
    audience=PUBLIC,
) -> list[Partition]:
    """Refine listeners' partitions by the preimages of announced values.

    ``announcements`` maps announcing agents to profile-indexed value
    functions, which must be constant on each announcer's blocks
    (:class:`MeasurabilityError` otherwise).  ``audience`` is either
    ``PUBLIC`` or a set of listening agents.  Refinement never coarsens.
    """
    for announcer, fn in announcements.items():
        for block in partitions[announcer].blocks:
            values = {fn(p) for p in block}
            if len(values) > 1:
                raise MeasurabilityError(
                    f"agent {announcer} announcement is not constant on a block"
                )
    fns = list(announcements.values())

    def heard(profile: Profile) -> tuple:
        return tuple(fn(profile) for fn in fns)

    listeners = range(space.n) if audience == PUBLIC else audience
    refined = list(partitions)
    for listener in listeners:
        refined[listener] = refined[listener].refine_by_key(heard)
    return refined


def is_common_knowledge(
    space: OutcomeSpace,
    partitions: Sequence[Partition],
    variables: Sequence[Callable[[frozenset], Hashable]],
) -> bool:
    """True iff every agent's variable is measurable in every agent's partition.

    ``variables[u]`` maps a block of agent u's partition to u's value on it.
    The predicate checks that for every ordered pair (u, w) the profile
    function of u's variable is constant on each block of w's partition.
    """
    profile_values = []
    for u in range(space.n):
        values = {block: variables[u](block) for block in partitions[u].blocks}
        by_profile = {}
        for block, v in values.items():
            for profile in block:
                by_profile[profile] = v
        profile_values.append(by_profile)
    for w in range(space.n):
        for block in partitions[w].blocks:
            for u in range(space.n):
                seen = {profile_values[u][p] for p in block}
                if len(seen) > 1:
                    return False
    return True


def dump_partitions(space: OutcomeSpace, partitions: Sequence[Partition]) -> str:
    """Diagnostic text dump: one block per line, profiles as symbol strings."""
    lines = []
    for u, partition in enumerate(partitions):
        for block in partition.blocks:
            cells = sorted("".join(str(s) for s in profile) for profile in block)
            lines.append(f"agent {u}: {' '.join(cells)}")
    return "\n".join(lines) + "\n"
