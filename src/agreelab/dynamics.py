"""Announcement protocols driven to their common-knowledge fixed points.

Refinement is a function of the information structure alone, so protocols run
over all profiles simultaneously; a realized profile only selects which
block's values get reported.  The fixed point is detected on partition
equality, never on value coincidence.  In the public protocols an agent's
partition is its initial one refined by the public partition, of all that
was announced; one with as many blocks as that is the public object itself,
and each distinct object announces and refines once (:func:`shared`).
Action sets are decided by the sign of each block's summed margin.  Every
exact mean of beliefs, announced or reported as X, is folded by
:func:`fold_mean`, in Python-int object arrays once it leaves ``int64``;
public-action's X on count vectors is first bracketed in ``longdouble`` and
folded only where the bracket leaves its rounding in doubt.

For conditionally i.i.d. signals every protocol is also decided from count
vectors alone, with no space built: :func:`decide_counts` decides any rows
of counts, each on its own, so a Monte Carlo run decides each distinct
count vector it draws once.  Each belief protocol provably ends at the
pooled posterior once every partition refines its agent's signal, and
own-signal public-action is read off the counts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .bounds import count_odds, count_rows, integer_weights
from .errors import ConnectivityError
from .knowledge import (
    ACTION_SETS,
    INT64_LIMIT,
    TIE,
    OutcomeSpace,
    Partition,
    action_codes,
    block_beliefs,
    block_sums,
    dense_codes,
    is_common_knowledge,
    joint_codes,
    trivial_partition,
    validate_partitions,
)
from .signals import SignalModel

PUBLIC_BELIEF = "public-belief"
PUBLIC_ACTION = "public-action"
PUBLIC_STATISTIC = "public-statistic"
NETWORK_BELIEF = "network-belief"

PROTOCOL_KINDS = (PUBLIC_BELIEF, PUBLIC_ACTION, PUBLIC_STATISTIC, NETWORK_BELIEF)

#: Belief combinations averaged per batch on the Python-int path, which
#: bounds the object-array temporaries.
MEAN_BLOCK = 2**14

#: Significand bits of ``np.longdouble`` (64 on x86-64, 53 where it is a
#: double), in which public-action's X is bracketed before any exact fold.
LONGDOUBLE_BITS = np.finfo(np.longdouble).nmant + 1


@dataclass(frozen=True)
class Digraph:
    """Directed communication graph; an edge (u, w) lets w hear u."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("a digraph needs at least one agent")
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
        """The cycle 0 -> 1 -> ... -> n-1 -> 0; a lone agent hears no one."""
        return Digraph(n, tuple((u, (u + 1) % n) for u in range(n) if n > 1))


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


def announced_codes(kind: str, space: OutcomeSpace, partition: Partition):
    """What one agent announces, per profile: its belief (or, in public-action,
    its optimal action set, from :func:`~agreelab.knowledge.action_codes`)
    as integer codes, of the narrowest unsigned type that holds them, and
    the values they stand for."""
    if kind == PUBLIC_ACTION:
        (margin,) = block_sums(space, partition, space.margin)
        codes, values = action_codes(margin), ACTION_SETS
    else:
        codes, values = block_beliefs(space, partition)
    return codes.astype(np.min_scalar_type(len(values)))[partition.labels], values


def shared(fn: Callable, items: Sequence) -> list:
    """``fn`` of each item, called once per distinct object: its holders share the result."""
    done: dict[int, object] = {}
    return [done[id(x)] if id(x) in done else done.setdefault(id(x), fn(x)) for x in items]


def fold_mean(terms: Iterable[tuple[np.ndarray, np.ndarray]], n):
    """The exact mean over ``n`` of the fractions ``num / den`` in ``terms``;
    ``n`` is one count, or a column of one per row.

    Each term is a ``(num, den)`` pair of equal-length columns.  They are
    folded left to right into one numerator and denominator, not reduced;
    object arrays of Python ints keep every digit.  It averages the agents'
    beliefs in :func:`mean_beliefs`, and public-action's holders' beliefs
    on the rows of counts whose ``longdouble`` bracket is in doubt
    (:func:`_mean_belief_bracket`).
    """
    (num, den), *rest = terms
    for a, b in rest:
        num, den = num * b + a * den, den * b
    return num, den * n


def mean_beliefs(columns: Sequence[np.ndarray], values: Sequence[list]) -> tuple[np.ndarray, list]:
    """Exact mean of the agents' beliefs at every profile.

    The u-th of ``columns`` codes agent u's belief per profile into
    ``values[u]``.  Returns ``(codes, means)``: the mean at profile i is
    ``means[codes[i]]``, numbered by first occurrence.  When the beliefs
    share a denominator small enough for ``int64``, the means are summed as
    integer numerators over it; otherwise each distinct combination of
    beliefs is averaged by :func:`fold_mean`, :data:`MEAN_BLOCK`
    combinations at a time, and coded by its gcd-reduced pair.
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
    joint, first = joint_codes(columns)
    pairs = [np.array([(b.numerator, b.denominator) for b in v], dtype=object).T for v in values]
    means: dict[tuple[int, int], int] = {}
    mean_codes = []
    for lo in range(0, len(first), MEAN_BLOCK):
        at = first[lo : lo + MEAN_BLOCK]
        terms = ((nums[c[at]], dens[c[at]]) for c, (nums, dens) in zip(columns, pairs))
        num, den = fold_mean(terms, n)
        common = np.gcd(num, den)
        reduced = zip((num // common).tolist(), (den // common).tolist())
        mean_codes += [means.setdefault(pair, len(means)) for pair in reduced]
    return np.array(mean_codes, dtype=np.int64)[joint], [Fraction(*pair) for pair in means]


def _realized_position(space: OutcomeSpace, profile) -> int:
    """The position of a realized profile tuple in ``space``."""
    if (where := space.position(profile)) is None:
        raise ValueError(f"realized profile {profile!r} has zero weight")
    return where


def fixed_point_partitions(
    kind: str,
    space: OutcomeSpace,
    partitions: Sequence[Partition],
    profile=None,
    network: Digraph | None = None,
) -> tuple[list[Partition], ProtocolTrace]:
    """Iterate announce-then-refine until a full round changes nothing.

    Partitions over a finite profile set can only refine finitely often, so
    termination is guaranteed; a round limit guards that internally.
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
    where = None if profile is None else _realized_position(space, profile)
    partitions = list(partitions)
    public = trivial_partition(space)
    trace = ProtocolTrace(kind=kind)
    for _ in range(space.n * len(space.symbols) + 1):
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
                told = shared(lambda p: announced_codes(kind, space, p), partitions)
                heard, means = mean_beliefs(*zip(*told))
                if where is not None:
                    said["public"] = means[heard[where]]
            else:
                # One distinct partition's per-profile codes at a time, folded as they come.
                def announcements():
                    told: dict[int, object] = {}
                    for u, partition in enumerate(partitions):
                        if id(partition) not in told:
                            codes, values = announced_codes(kind, space, partition)
                            told[id(partition)] = None if where is None else values[codes[where]]
                            yield codes
                        if where is not None:
                            said[str(u)] = told[id(partition)]

                heard = joint_codes(announcements())[0]
            public = public.refine(heard)  # every agent's partition refines it
            refined = shared(lambda p: p.refine(heard), partitions)
            new_partitions = [public if p.block_count == public.block_count else p for p in refined]
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
    where = _realized_position(space, profile)
    final, trace = fixed_point_partitions(kind, space, partitions, profile, network)
    beliefs = shared(lambda p: announced_codes(PUBLIC_BELIEF, space, p), final)
    actions = shared(lambda p: announced_codes(PUBLIC_ACTION, space, p), final)
    return ProtocolResult(
        partitions=final,
        trace=trace,
        beliefs=tuple(values[codes[where]] for codes, values in beliefs),
        actions=tuple(values[codes[where]] for codes, values in actions),
        beliefs_common_knowledge=is_common_knowledge(final, (c for c, _ in beliefs)),
        actions_common_knowledge=is_common_knowledge(final, (c for c, _ in actions)),
    )


# ---------------------------------------------------------------------------
# i.i.d. signals and own-signal information: one realized path per count vector
# ---------------------------------------------------------------------------


def decide_counts(model: SignalModel, kind: str, counts: np.ndarray):
    """A protocol's outcome at each row of ``counts``, count vectors of
    conditionally i.i.d. signals from ``model`` over its support, each agent
    first knowing its own signal; a row's agent count is its sum.

    Returns per row what the enumerated outcome table gives its profiles:
    the reported action's code in :data:`~agreelab.knowledge.ACTION_SETS`
    (``int8``) and the belief X (``float64``).  Each row is decided on its
    own, so any subset of rows, of any agent counts, may be asked for, in
    any order.  Under every kind, rows that
    :func:`~agreelab.bounds.count_rows` refuses (of the wrong width,
    negative or fractional) and a row of no agents raise ``ValueError``.  Under
    public-action every public block is a product of one set of symbols per
    agent, and agents holding one symbol hold one set, so the outcome
    depends on the counts alone: :func:`_public_action_by_counts` reads it
    off them.  Whenever each agent's partition refines its own signal, as
    the senate's do too, every belief protocol ends at the row's pooled
    posterior ``o1 / (o0 + o1)`` of :func:`~agreelab.bounds.count_odds`:
    the rational of :func:`~agreelab.bounds.count_law`'s ``w1 / (w0 + w1)``,
    so a Python-int true division gives it correctly rounded, bit-equal to
    the table's X (and to ``float`` of
    :func:`~agreelab.bounds.count_posterior`), and ``o1 - o0`` its tie sign.

    Proof.  Mutual absolute continuity gives every profile p positive mass
    in both states, and the prior is uniform, so ``w1(p) = w0(p) e^L(p)``
    with L the sum of the agents' log-likelihood ratios ``z(p_i)``.  Write
    ``b_i`` for agent i's belief at the fixed point.

    1. Consensus.  Public-belief: the beliefs are common knowledge, so they
       are equal (Aumann).  Public-statistic: on a public block B the mean
       m is constant and each ``b_i - m`` is known to agent i, so
       ``E[(S - b_i)(b_i - m) | B] = 0``; summed over the agents, with
       ``sum_i (b_i - m) = 0``, this is ``-E[sum_i (b_i - m)^2 | B] = 0``.
       Network-belief on a strongly connected digraph: on an edge u -> w,
       w knows ``b_u``, so ``E[(b_w - b_u)^2] = E[b_w^2] - E[b_u^2] >= 0``;
       these sum to 0 around a cycle, and every edge lies on one.
    2. Consensus gives the pooled posterior.  Let the shared belief be v on
       the event A.  Each agent's partition refines its own signal and the
       belief, so ``P(S = 1 | p_i = x, A) = v`` for every agent i and
       symbol x: with ``d = w1 - v' w0``, ``v' = v / (1 - v)``, the sum of
       d over the profiles of A with ``p_i = x`` is 0.  Weighting these sums
       by ``z(x)`` and adding them over i and x gives ``sum_A L d = 0``;
       adding them over x alone gives ``sum_A d = 0``.  Under ν, w0
       normalized on A, that is ``Cov_ν(L, e^L) = 0``, and as ``e^L`` is
       strictly increasing in L, L is constant on A.  So ``v' = e^L`` and
       v is the pooled posterior ``w1 / (w0 + w1)`` at every profile.
    """
    if kind not in PROTOCOL_KINDS:
        raise ValueError(f"unknown protocol kind {kind!r}")
    counts = count_rows(model, counts)
    if not counts.sum(axis=1).all():
        raise ValueError("every row of counts needs at least one agent")
    if kind == PUBLIC_ACTION:
        return _public_action_by_counts(model, counts)
    o0, o1 = count_odds(model, counts)
    return action_codes(o1 - o0).astype(np.int8), (o1 / (o0 + o1)).astype(np.float64)


def _public_action_by_counts(model: SignalModel, counts: np.ndarray):
    """Public-action's fixed point on each row of ``counts`` (over the support).

    Each symbol present keeps a slot: its count and the set of symbols the
    public block allows its holders.  A holder's action, were its symbol x,
    is the sign of ``a1(x) Q1 - a0(x) Q0``, ``Q_s`` the product of the other
    agents' set masses in state s; it grows with x's likelihood ratio, so
    each set is an interval [lo, hi) of the symbols in that order.  Each
    round finds, per slot, where the action changes from float log-odds
    (``math.log`` of exact masses), decides again exactly, with Python-int
    products, the symbols whose float lies within its error bound, and
    keeps the symbols acting as the slot's own.  A row's rounds read its
    own counts and intervals only, so each round steps just the rows whose
    intervals moved in the last, and a row is done when none of its
    intervals changes.  X is the mean of the holders' final beliefs, each
    slot's weighted by its count.  :func:`_mean_belief_bracket` computes it
    in ``longdouble`` from each set's and symbol's truncated odds, with a
    proven error bound, and keeps the double where the whole bracket rounds
    to it; the other rows (the bracket straddles a rounding boundary, or a
    value leaves ``longdouble``'s normal range) are folded exactly by
    :func:`fold_mean` over the row's own agent count.  Either way X is
    correctly rounded.
    """
    _, pairs = integer_weights(model)
    k = len(pairs)
    order = sorted(range(k), key=lambda i: Fraction(pairs[i][1], pairs[i][0]))
    a0, a1 = ([pairs[i][s] for i in order] for s in (0, 1))
    prefix = [list(itertools.accumulate(a, initial=0)) for a in (a0, a1)]
    logs = np.array([[math.log(w) for w in a] for a in (a0, a1)])
    z = np.maximum.accumulate(logs[1] - logs[0])  # sorted, each within its own error
    z_scale = float(logs.sum(axis=0).max())
    ordered = counts[:, order]
    slots = min(int(ordered.sum(axis=1).max(initial=1)), k)
    own = np.argsort(ordered == 0, axis=1, kind="stable")[:, :slots]
    c = np.take_along_axis(ordered, own, axis=1)
    present = c > 0
    lo, hi = np.zeros_like(own), np.full_like(own, k)

    @functools.cache
    def log_masses(start: int, stop: int) -> tuple[float, float]:
        return tuple(math.log(p[stop] - p[start]) for p in prefix)

    def step(lo, hi, c, own, present):
        """One round on some rows: their actions and narrowed intervals."""
        keys, inverse = np.unique(lo * (k + 1) + hi, return_inverse=True)
        table = np.array([log_masses(*divmod(key, k + 1)) for key in keys.tolist()])
        l0, l1 = np.moveaxis(table[inverse.reshape(own.shape)], -1, 0)
        # r: the other agents' log-odds, per slot.  Each log is within about an
        # ulp and each of the slots' terms adds about an ulp of the sum, so
        # (slots + 8) eps times the logs' total size bounds the error of
        # z(x) + r with room to spare; below 1e-9 everything is rechecked, as
        # in the pooled sampler.
        r = (c * (l1 - l0)).sum(axis=1, keepdims=True) - (l1 - l0)
        scale = (c * (l0 + l1)).sum(axis=1, keepdims=True) + l0 + l1 + z_scale
        error = np.maximum(1e-9, (slots + 8) * np.finfo(float).eps * scale)
        first = np.searchsorted(z, -r - error)
        last = np.searchsorted(z, -r + error, side="right")
        below, above = first.copy(), first.copy()  # symbols before below act 0, from above on 1
        for v, j in zip(*np.nonzero(present & (last > first))):
            others = c[v] - (np.arange(slots) == j)
            q0, q1 = (
                math.prod((p[h] - p[l]) ** int(e) for l, h, e in zip(lo[v], hi[v], others))
                for p in prefix
            )
            margins = [a1[x] * q1 - a0[x] * q0 for x in range(first[v, j], last[v, j])]
            below[v, j] += sum(m < 0 for m in margins)
            above[v, j] = below[v, j] + margins.count(0)
        act = np.where(own < below, 0, np.where(own >= above, 1, TIE))
        cut_lo = np.maximum(lo, np.where(act == 1, above, below))
        cut_hi = np.minimum(hi, np.where(act == 0, below, above))
        new_lo = np.where(present & (act != 0), cut_lo, lo)
        return act, new_lo, np.where(present & (act != 1), cut_hi, hi)

    # A row's final act is that of its last step, the one that moved nothing.
    act, moving = np.empty_like(own), np.arange(len(own))
    while len(moving):
        now = lo[moving], hi[moving]
        act[moving], lo[moving], hi[moving] = step(*now, c[moving], own[moving], present[moving])
        moved = (lo[moving] != now[0]).any(axis=1) | (hi[moving] != now[1]).any(axis=1)
        moving = moving[moved]
    split = (present & (act != act[:, :1])).any(axis=1)
    if split.any():
        at = tuple(counts[int(np.argmax(split))].tolist())
        raise AssertionError(f"fixed point of public-action left actions unequal at counts {at}")
    # A holder believes a1 Q1 / (a1 Q1 + a0 Q0); X is the mean over the row's agents.
    keys, inverse = np.unique(lo * (k + 1) + hi, return_inverse=True)
    masses = [[p[h] - p[l] for p in prefix] for l, h in (divmod(key, k + 1) for key in keys.tolist())]
    inverse = inverse.reshape(own.shape)
    rho, tau = (_truncated_ratios(ratios) for ratios in (masses, zip(a0, a1)))
    xs, settled = _mean_belief_bracket(rho[inverse], tau[own], c)
    doubt = np.flatnonzero(~settled)
    m0, m1 = (np.array(m, dtype=object)[inverse[doubt]] for m in zip(*masses))
    weights, held = c[doubt].astype(object), present[doubt]
    q0, q1 = (np.prod(m**weights, axis=1)[:, None] // np.where(held, m, 1) for m in (m0, m1))
    num = np.array(a1, dtype=object)[own[doubt]] * q1
    den = num + np.array(a0, dtype=object)[own[doubt]] * q0
    total, scale = fold_mean(zip((weights * num).T, den.T), weights.sum(axis=1))
    xs[doubt] = (total / scale).astype(np.float64)
    return act[:, 0].astype(np.int8), xs


def _truncated_ratios(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    """``num / den`` of each pair of positive ints, truncated to
    :data:`LONGDOUBLE_BITS` bits, as a ``longdouble``: short of it by less
    than ``2**(1 - LONGDOUBLE_BITS)`` of itself where that is a normal ``longdouble``."""
    bits, shifted = LONGDOUBLE_BITS, []
    for num, den in pairs:
        s = bits + den.bit_length() - num.bit_length()
        q = (num << s) // den if s >= 0 else num // (den << -s)
        shifted.append((q >> 1, s - 1) if q >> bits else (q, s))
    q, s = zip(*shifted)
    with np.errstate(all="ignore"):
        return np.ldexp(np.array(q, dtype=object).astype(np.longdouble), -np.array(s))


def _normal(values: np.ndarray) -> np.ndarray:
    """Where ``values`` are finite and at least twice ``longdouble``'s
    smallest normal: a rounding to such a value errs by at most its half ulp."""
    limits = np.finfo(np.longdouble)
    return (values >= 2 * limits.smallest_normal) & (values <= limits.max)


def _mean_belief_bracket(rho, tau, c) -> tuple[np.ndarray, np.ndarray]:
    """Public-action's X per row from ``longdouble``s, and where it is certified.

    Per slot, ``rho`` is m0 / m1 of its set's masses and ``tau`` a0 / a1 of
    its own symbol, each from :func:`_truncated_ratios`, and ``c`` is its
    count.  With ``rho**c`` taken by squaring over the bits of c and P the
    product of the slots' powers, a holder's odds are ``u = tau P / rho``,
    its belief ``b = 1 / (1 + u)``, and ``X = sum(c b) / n``.  The bound is
    ``E = K eps X`` with ``K = 3n + 2 slots + 8`` and ``eps = 2**(1 - p)``,
    p = :data:`LONGDOUBLE_BITS`.  Returns ``X - E`` as a ``float64``, and
    where it is certified: ``X + E`` rounds to the same double, which is
    then the exact X's.

    Proof.  Say a computed value has weight w when it is the exact one times
    a factor in ``[1 - w r, 1 / (1 - w r)]``, r = 2^-p the unit roundoff.
    Weights add over products and quotients and multiply under powers, and
    a rounding to a normal value adds 1; a truncated ratio has weight 2.  In
    ``rho**c`` the input's error is raised to c, the t-th squaring's
    rounding to ``floor(c / 2^t)``, and popcount(c) - 1 products add 1 each:
    at most 3c - 1 in all.  So P, the slots' cumulative product, has weight
    at most 3n + slots - 2, and u, with tau, rho and two roundings,
    3n + slots + 4.  As ``1 + u (1 + θ) = (1 + u)(1 + θ u / (1 + u))``, b
    has u's weight plus its two roundings.  A sum of positive terms has its
    terms' largest weight plus the additions a term goes through, at most
    slots - 1 in any order; with ``c b`` and ``/ n``, X has weight at most
    ``K - 1``.  So the exact X lies within ``(K - 1) r / (1 - (K - 1) r)``
    of the computed X, less than E less the roundings of ``X - E`` and
    ``X + E`` while ``K eps <= 2^-10``, and rounding is monotone: when both
    ends round to one double, so does the exact X (Ziv's rounding test, as
    in :func:`~agreelab.bounds.certified_msbe`).  A row is certified only
    where its powers, their cumulative products, its holders' rho, tau,
    ``tau P``, u and b, and E (so X too) are normal: a normal power had
    only normal squarings, as they move monotonically away from 1.
    """
    with np.errstate(all="ignore"):
        power, base, e = np.ones_like(rho), rho, c
        while e.any():
            power = np.where(e & 1, power * base, power)
            base, e = base * base, e >> 1
        partial = np.cumprod(power, axis=1)
        odds = tau * partial[:, -1:]
        u = odds / rho
        b = 1 / (1 + u)
        n = c.sum(axis=1).astype(np.longdouble)
        x = (c * b).sum(axis=1) / n
        bound = (3 * n + 2 * c.shape[1] + 8) * np.ldexp(np.longdouble(1), 1 - LONGDOUBLE_BITS)
        error = bound * x
        low, high = (x - error).astype(np.float64), (x + error).astype(np.float64)
    held = np.logical_and.reduce([_normal(v) for v in (rho, tau, odds, u, b)]) | (c == 0)
    in_range = (held & _normal(power) & _normal(partial)).all(axis=1)
    return low, in_range & _normal(error) & (bound <= 2**-10) & (low == high)
