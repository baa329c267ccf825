"""Announcement protocols driven to their common-knowledge fixed points.

Refinement is a function of the information structure alone, so protocols run
over all profiles simultaneously; a realized profile only selects which
block's values get reported.  The fixed point is detected on partition
equality, never on value coincidence.  Action sets are decided by the signs
of block masses, and means beyond ``int64`` are folded in Python-int object
arrays, :data:`MEAN_BLOCK` belief combinations at a time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import ConnectivityError
from .knowledge import (
    ACTION_SETS,
    INT64_LIMIT,
    OutcomeSpace,
    Partition,
    action_codes,
    block_beliefs,
    block_masses,
    dense_codes,
    is_common_knowledge,
    joint_codes,
    validate_partitions,
)

PUBLIC_BELIEF = "public-belief"
PUBLIC_ACTION = "public-action"
PUBLIC_STATISTIC = "public-statistic"
NETWORK_BELIEF = "network-belief"

PROTOCOL_KINDS = (PUBLIC_BELIEF, PUBLIC_ACTION, PUBLIC_STATISTIC, NETWORK_BELIEF)

#: Belief combinations averaged per batch on the Python-int path, which
#: bounds the object-array temporaries.
MEAN_BLOCK = 2**14


@dataclass(frozen=True)
class Digraph:
    """Directed communication graph; an edge (u, w) lets w hear u."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple(sorted(set(self.edges)))
        object.__setattr__(self, "edges", edges)
        for u, w in edges:
            if not (0 <= u < self.n and 0 <= w < self.n) or u == w:
                raise ValueError(f"invalid edge ({u}, {w})")

    def is_strongly_connected(self) -> bool:
        forward: dict[int, list[int]] = {u: [] for u in range(self.n)}
        backward: dict[int, list[int]] = {u: [] for u in range(self.n)}
        for u, w in self.edges:
            forward[u].append(w)
            backward[w].append(u)

        def reaches_all(adj) -> bool:
            seen = {0}
            stack = [0]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            return len(seen) == self.n

        return reaches_all(forward) and reaches_all(backward)

    @staticmethod
    def ring(n: int) -> "Digraph":
        return Digraph(n, tuple((u, (u + 1) % n) for u in range(n)))


@dataclass
class ProtocolRound:
    announced: tuple[tuple[str, object], ...]
    block_counts: tuple[int, ...]


@dataclass
class ProtocolTrace:
    kind: str
    rounds: list[ProtocolRound] = field(default_factory=list)

    @property
    def rounds_to_fixed_point(self) -> int:
        return max(len(self.rounds) - 1, 0)

    def to_csv(self) -> str:
        """Row-per-round-per-agent CSV: round, agent, announced value, block count."""

        def fmt(value) -> str:
            if isinstance(value, frozenset):
                return "{" + " ".join(str(x) for x in sorted(value)) + "}"
            return str(value)

        lines = ["round,agent,announced,blocks"]
        for r, rnd in enumerate(self.rounds):
            values = dict(rnd.announced)
            for agent, blocks in enumerate(rnd.block_counts):
                label = str(agent)
                value = values.get(label, values.get("public", ""))
                lines.append(f"{r},{agent},{fmt(value)},{blocks}")
        return "\n".join(lines) + "\n"


@dataclass
class ProtocolResult:
    partitions: list[Partition]
    trace: ProtocolTrace
    beliefs: tuple[Fraction, ...] | None
    actions: tuple[frozenset, ...] | None
    beliefs_common_knowledge: bool
    actions_common_knowledge: bool

    @property
    def common_belief(self) -> Fraction:
        values = set(self.beliefs)
        if len(values) != 1:
            raise ValueError("beliefs did not agree at the fixed point")
        return values.pop()

    @property
    def common_action(self) -> frozenset:
        values = set(self.actions)
        if len(values) != 1:
            raise ValueError("actions did not agree at the fixed point")
        return values.pop()


def announced_codes(kind: str, space: OutcomeSpace, partition: Partition):
    """What one agent announces, per profile: its belief (or, in public-action,
    its optimal action set, from :func:`~agreelab.knowledge.action_codes`)
    as integer codes, and the values they stand for."""
    if kind == PUBLIC_ACTION:
        return action_codes(*block_masses(space, partition))[partition.labels], ACTION_SETS
    codes, values = block_beliefs(space, partition)
    return codes[partition.labels], values


def exact_means(combinations: Sequence[np.ndarray], values: Sequence[list]):
    """Exact means of combinations of the agents' beliefs, in blocks.

    ``combinations[u][k]`` codes agent u's belief in the k-th combination
    into ``values[u]``.  Yields, per block of :data:`MEAN_BLOCK`
    combinations in order, object arrays of the means' numerators and
    denominators, not reduced.
    """
    n = len(values)
    pairs = [np.array([(b.numerator, b.denominator) for b in v], dtype=object).T for v in values]
    for lo in range(0, len(combinations[0]), MEAN_BLOCK):
        terms = [
            (nums[codes[lo : lo + MEAN_BLOCK]], dens[codes[lo : lo + MEAN_BLOCK]])
            for codes, (nums, dens) in zip(combinations, pairs)
        ]
        num, den = terms[0]
        for a, b in terms[1:]:
            num, den = num * b + a * den, den * b
        yield num, den * n


def mean_beliefs(columns: Iterable[np.ndarray], values: Sequence[list]) -> tuple[np.ndarray, list]:
    """Exact mean of the agents' beliefs at every profile.

    The u-th of ``columns`` codes agent u's belief per profile into
    ``values[u]``.  Returns ``(codes, means)``: the mean at profile i is
    ``means[codes[i]]``, numbered by first occurrence.  When the beliefs
    share a denominator small enough for ``int64``, the means are summed as
    integer numerators over it; otherwise each distinct combination of
    beliefs is averaged by :func:`exact_means` and coded by its gcd-reduced
    pair.
    """
    n = len(values)
    den = 1
    for b in itertools.chain.from_iterable(values):
        den = math.lcm(den, b.denominator)
        if den * n >= INT64_LIMIT:
            break
    else:
        total = 0
        for codes, vals in zip(columns, values):
            total = total + np.array([b.numerator * (den // b.denominator) for b in vals])[codes]
        codes, first = dense_codes(total)
        return codes, [Fraction(int(total[i]), den * n) for i in first.tolist()]
    columns = list(columns)
    joint, first = joint_codes(columns)
    means: dict[tuple[int, int], int] = {}
    mean_codes = []
    for num, den in exact_means([c[first] for c in columns], values):
        common = np.gcd(num, den)
        reduced = zip((num // common).tolist(), (den // common).tolist())
        mean_codes += [means.setdefault(pair, len(means)) for pair in reduced]
    return np.array(mean_codes, dtype=np.int64)[joint], [Fraction(*pair) for pair in means]


def fixed_point_partitions(
    kind: str,
    space: OutcomeSpace,
    partitions: Sequence[Partition],
    profile=None,
    network: Digraph | None = None,
    max_rounds: int | None = None,
) -> tuple[list[Partition], ProtocolTrace]:
    """Iterate announce-then-refine until a full round changes nothing.

    Partitions over a finite profile set can only refine finitely often, so
    termination is guaranteed; ``max_rounds`` is an internal safety valve.
    With a realized ``profile`` the trace records what was announced there:
    each agent's value (the public statistic's value for all) in the public
    protocols, and in the network protocol the value each agent announced on
    its first out-edge of the round.  Within a network round the edges are
    heard one after another in ``network.edges`` order, each refinement
    visible to the edges after it.  On strongly connected digraphs of up to
    four agents the beliefs reached are checked not to depend on that order.
    """
    if kind not in PROTOCOL_KINDS:
        raise ValueError(f"unknown protocol kind {kind!r}")
    validate_partitions(space, partitions)
    if kind == NETWORK_BELIEF:
        if network is None:
            network = Digraph.ring(space.n)
        if network.n != space.n:
            raise ValueError("digraph size must match the agent count")
        if not network.is_strongly_connected():
            raise ConnectivityError("network protocol needs a strongly connected digraph")
    where = None if profile is None else space.profiles.index[profile]
    partitions = list(partitions)
    trace = ProtocolTrace(kind=kind)
    limit = max_rounds if max_rounds is not None else space.n * len(space.profiles) + 1
    for _ in range(limit):
        said: dict[str, object] = {}
        if kind == NETWORK_BELIEF:
            new_partitions = list(partitions)
            for u, w in network.edges:
                codes, values = announced_codes(kind, space, new_partitions[u])
                new_partitions[w] = new_partitions[w].refine(codes)
                if where is not None:
                    said.setdefault(str(u), values[codes[where]])
        else:
            if kind == PUBLIC_STATISTIC:
                heard, means = mean_beliefs(
                    *zip(*(announced_codes(kind, space, p) for p in partitions))
                )
                if where is not None:
                    said["public"] = means[heard[where]]
            else:
                # One agent's per-profile codes at a time, folded as they come.
                def announcements():
                    for u, partition in enumerate(partitions):
                        codes, values = announced_codes(kind, space, partition)
                        if where is not None:
                            said[str(u)] = values[codes[where]]
                        yield codes

                heard = joint_codes(announcements())[0]
            new_partitions = [p.refine(heard) for p in partitions]
        trace.rounds.append(
            ProtocolRound(
                announced=tuple(said.items()),
                block_counts=tuple(p.block_count for p in new_partitions),
            )
        )
        if new_partitions == partitions:
            return partitions, trace
        partitions = new_partitions
    raise AssertionError("protocol failed to reach a fixed point within the round limit")


def run_protocol(
    kind: str,
    space: OutcomeSpace,
    partitions: Sequence[Partition],
    profile,
    network: Digraph | None = None,
) -> ProtocolResult:
    """Run one protocol to its fixed point and report the realized outcome.

    At the fixed point of public-belief, all beliefs agree and are common
    knowledge; at the fixed point of public-action, all action sets agree and
    are common knowledge.  Both predicates are checked explicitly, never
    assumed.
    """
    where = space.profiles.index.get(profile)
    if where is None:
        raise ValueError(f"realized profile {profile!r} has zero weight")
    final, trace = fixed_point_partitions(kind, space, partitions, profile, network)
    beliefs = [announced_codes(PUBLIC_BELIEF, space, p) for p in final]
    actions = [announced_codes(PUBLIC_ACTION, space, p) for p in final]
    return ProtocolResult(
        partitions=final,
        trace=trace,
        beliefs=tuple(values[codes[where]] for codes, values in beliefs),
        actions=tuple(values[codes[where]] for codes, values in actions),
        beliefs_common_knowledge=is_common_knowledge(final, (c for c, _ in beliefs)),
        actions_common_knowledge=is_common_knowledge(final, (c for c, _ in actions)),
    )
