"""Direct reference forms of the knowledge predicates, for the tests.

The library states knowledge on block labels and per-profile codes.  These
re-derive the same objects the textbook way: blocks as frozensets of profile
tuples, posteriors summed profile by profile, variables as functions of a
block, announcements as functions of a profile.
"""

from fractions import Fraction

import numpy as np

from agreelab.errors import NullConditioningError
from agreelab.knowledge import Partition, Profiles, dense_codes


def partition_of_blocks(blocks) -> Partition:
    """The partition of the blocks' profiles into the given disjoint blocks."""
    blocks = [frozenset(b) for b in blocks if b]
    profiles = Profiles(sorted(set().union(*blocks)))
    if sum(len(b) for b in blocks) != len(profiles):
        raise ValueError("partition blocks must be disjoint")
    keys = np.empty(len(profiles), dtype=np.int64)
    for i, block in enumerate(blocks):
        keys[[profiles.index[p] for p in block]] = i
    return Partition(profiles, dense_codes(keys)[0])


def blocks_of(partition: Partition) -> tuple:
    """The partition's blocks as frozensets, in label order."""
    members = [[] for _ in range(partition.block_count)]
    for profile, label in zip(partition.profiles, partition.labels.tolist()):
        members[label].append(profile)
    return tuple(frozenset(m) for m in members)


def posterior_belief(space, block) -> Fraction:
    """Exact P(S=1 | block) = weight(S=1, block) / weight(block)."""
    rows = [space.profiles.index[p] for p in block if p in space.profiles.index]
    ones = sum(int(space.w1[i]) for i in rows)
    total = ones + sum(int(space.w0[i]) for i in rows)
    if total == 0:
        raise NullConditioningError("cannot condition on a zero-weight block")
    return Fraction(ones, total)


def refine_by_announcement(space, partitions, announcements, audience=None) -> list:
    """Split every block of each listener (each agent when ``audience`` is
    None) by the tuple of values the announcers' profile functions take."""
    heard = [tuple(fn(p) for fn in announcements.values()) for p in space.profiles]
    refined = list(partitions)
    for listener in range(space.n) if audience is None else audience:
        pieces: dict = {}
        labels = [
            pieces.setdefault((block, said), len(pieces))
            for block, said in zip(partitions[listener].labels.tolist(), heard)
        ]
        refined[listener] = Partition(space.profiles, np.array(labels, dtype=np.int64))
    return refined


def is_common_knowledge(space, partitions, variables) -> bool:
    """True iff for every ordered pair (u, w) of agents, u's variable, a
    function of u's blocks, is constant on each block of w's partition."""
    blocks = [blocks_of(p) for p in partitions]
    value_at = [{p: variables[u](b) for b in blocks[u] for p in b} for u in range(space.n)]
    return all(
        len({values[p] for p in block}) == 1
        for values in value_at
        for agent_blocks in blocks
        for block in agent_blocks
    )
