"""Direct reference forms of the knowledge predicates, for the tests.

The library states knowledge on block labels and per-profile codes.  These
re-derive the same objects the textbook way: blocks as frozensets of profile
tuples, posteriors summed profile by profile, variables as functions of a
block, announcements as functions of a profile.  The non-i.i.d. structures'
weights are defined here pair by pair, as Fractions.  The per-agent protocol
loop refines and announces once per agent, never sharing work between
agents that hold equal partitions, and tabulates outcomes from Fractions.
The exact engine's outcome table per profile, with its agreement check, is
the oracle of the Monte Carlo path's ``trial_outcomes``: grouped by the
statistic that each structure draws (``profile_statistics``), it must be
one outcome per statistic, and that outcome the structure's.  The count
law is rebuilt row by row, each multinomial coefficient and mass product
from scratch, and the pooled law decided one count vector at a time.  The
i.i.d. count draw is ``Generator.choice``'s rows of symbols, counted; the
geometric tail's weights are built as Fractions, one weight at a time.  The
i.i.d. pooled draw is kept as it was before its tie screen: every row's
log-odds a row sum, and every row's error bound read.
"""

import itertools
import math
import weakref
from fractions import Fraction

import numpy as np

from agreelab.bounds import ExactSummary, integer_weights, reduced_odds
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    ProtocolRound,
    ProtocolTrace,
    announced_codes,
    decide_counts,
    fixed_point_partitions,
    mean_beliefs,
    shared,
)
from agreelab.errors import AgreementLabError, NullConditioningError
from agreelab.knowledge import (
    ACTION_SETS,
    TIE,
    OutcomeSpace,
    Partition,
    action_code,
    block_beliefs,
    dense_codes,
    joint_codes,
)
from agreelab.scenarios import ExchangeableFlip, IidSignals, ParityBits, SenateStaged, TwoBitCombo
from agreelab.signals import belief_from_llr


def space_over(profiles, n: int) -> OutcomeSpace:
    """A space over the given distinct profile tuples of n signals, sorted,
    each of mass 1 in both states; its alphabet is the values they use."""
    profiles = sorted(profiles)
    alphabet = sorted({value for profile in profiles for value in profile})
    symbols = np.array([[alphabet.index(v) for v in p] for p in profiles], dtype=np.int64)
    masses = np.ones(len(profiles), dtype=np.int64)
    return OutcomeSpace(alphabet, symbols.reshape(-1, n), 2 * len(profiles), masses, masses)


def partition_of_blocks(blocks) -> Partition:
    """The partition of the blocks' profiles into the given disjoint blocks."""
    blocks = [frozenset(b) for b in blocks if b]
    union = set().union(*blocks)
    if sum(len(b) for b in blocks) != len(union):
        raise ValueError("partition blocks must be disjoint")
    space = space_over(union, len(next(iter(union))))
    keys = np.empty(len(union), dtype=np.int64)
    for i, block in enumerate(blocks):
        keys[[space.position(p) for p in block]] = i
    return Partition(space, dense_codes(keys)[0])


def blocks_of(partition: Partition) -> tuple:
    """The partition's blocks as frozensets, in label order."""
    members = [[] for _ in range(partition.block_count)]
    for profile, label in zip(partition.space.profiles, partition.labels.tolist()):
        members[label].append(profile)
    return tuple(frozenset(m) for m in members)


_POSITIONS = weakref.WeakKeyDictionary()


def positions(space) -> dict:
    """Each profile tuple's position in ``space``, as a dict built once per
    space: the textbook lookup, and far cheaper per profile than the
    library's ``searchsorted``."""
    if space not in _POSITIONS:
        _POSITIONS[space] = {profile: i for i, profile in enumerate(space.profiles)}
    return _POSITIONS[space]


def _keys(rows: np.ndarray, radix: int) -> np.ndarray:
    """Each row's mixed-radix key in base ``radix``."""
    keys = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        keys = keys * radix + column
    return keys


def locate(space, rows: np.ndarray) -> np.ndarray:
    """Positions in ``space`` of rows of symbols; a row outside the space
    is an error."""
    keys, wanted = (_keys(r, len(space.alphabet)) for r in (space.symbols, rows))
    found = np.minimum(keys.searchsorted(wanted), len(keys) - 1)
    if not np.array_equal(keys[found], wanted):
        raise AgreementLabError("a sampled profile has zero weight in the space")
    return found


def law_rows(blocks) -> list:
    """``count_law``'s blocks read back as one ``(counts tuple, w0, w1)`` per
    count vector, in the law's order."""
    return [
        (tuple(counts), w0, w1)
        for block, w0s, w1s in blocks
        for counts, w0, w1 in zip(block.tolist(), w0s, w1s)
    ]


def count_vectors(n: int, k: int) -> np.ndarray:
    """Every vector of ``k`` non-negative counts summing to ``n``, one ``int64``
    row each, in ``count_law``'s (lexicographic) order, the rows of
    ``IidSignals.trial_outcomes``' table.  Built a symbol at a time: each prefix with
    ``left`` agents unassigned is repeated ``left + 1`` times, followed by
    the counts ``0..left``."""
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n], dtype=np.int64)
    for _ in range(k - 1):
        repeats = left + 1
        starts = np.repeat(np.cumsum(repeats) - repeats, repeats)
        counts = np.arange(len(starts), dtype=np.int64) - starts
        rows = np.column_stack((np.repeat(rows, repeats, axis=0), counts))
        left = np.repeat(left, repeats) - counts
    return np.column_stack((rows, left))


def protocol_outcome_table(scenario, kind, space) -> tuple[np.ndarray, np.ndarray]:
    """Run the exact engine once and tabulate the fixed point per profile.

    Refinement does not depend on the realized profile, so one run covers
    every trial.  Returns, per profile of ``space``, the agents' common
    action's code in ``ACTION_SETS`` (``int8``) and the belief X
    (``float64``), whatever the structure.  Both are read off the agents'
    exact mean belief (``mean_beliefs``): agreeing actions are the mean's
    action and equal beliefs are their mean, so X is ``float`` of that
    ``Fraction``, correctly rounded.  An agent disagrees where its action
    (public-action) or its belief (the belief protocols) differs from the
    mean's, and then this raises ``AssertionError`` naming the first such
    profile.
    """
    final, _ = fixed_point_partitions(kind, space, scenario.initial_partitions(space))
    told = shared(lambda p: announced_codes(PUBLIC_BELIEF, space, p), final)
    del final  # the partitions' labels outweigh the codes read off them
    codes, means = mean_beliefs(*zip(*told))
    actions = np.array([action_code(m) for m in means], dtype=np.int8)[codes]
    if kind == PUBLIC_ACTION:
        judge, agreed = action_code, actions
    else:
        index = {m: i for i, m in enumerate(means)}
        judge, agreed = (lambda b: index.get(b, -1)), codes
    unequal = np.zeros(len(codes), dtype=bool)
    for column, values in {id(t): t for t in told}.values():
        unequal |= np.array([judge(b) for b in values], dtype=agreed.dtype)[column] != agreed
    if unequal.any():
        k = int(np.argmax(unequal))
        what = "actions" if len({action_code(v[c[k]]) for c, v in told}) > 1 else "beliefs"
        raise AssertionError(
            f"{scenario.name}: fixed point of {kind} left {what} unequal "
            f"on profile {space.profile(k)!r}"
        )
    return actions, np.array([float(m) for m in means])[codes]


def profile_statistics(scenario, space) -> np.ndarray:
    """Per profile of ``space``, the statistic that its structure's
    ``draw_statistic`` draws, in the same shape: the symbol counts over the
    alphabet for i.i.d. signals, the committee's ones and the others' ones
    for the senate, the proxy bit (a one-count of 3n/4, of the second bits
    for two-bit) for flip and two-bit, and an empty row for parity."""
    structure, n = scenario.structure, scenario.n
    symbols = space.symbols.astype(np.int64)
    if isinstance(structure, SenateStaged):
        m = structure.senate_size
        return np.column_stack((symbols[:, :m].sum(axis=1), symbols[:, m:].sum(axis=1)))
    if isinstance(structure, IidSignals):
        return np.column_stack([(symbols == s).sum(axis=1) for s in range(len(space.alphabet))])
    if isinstance(structure, ParityBits):
        return np.empty((len(symbols), 0), dtype=np.int64)
    if isinstance(structure, TwoBitCombo):
        structure, symbols = structure.flip, symbols % 2
    if isinstance(structure, ExchangeableFlip):
        return (symbols.sum(axis=1) == structure.ones_count(n, 1)).astype(np.int64)
    raise TypeError(f"no statistic for {type(structure).__name__}")


def trial_table(scenario, kind, space) -> tuple[np.ndarray, np.ndarray]:
    """Per profile of ``space``, the action code and X a Monte Carlo trial
    reports: ``protocol_outcome_table``'s, except that the senate reports
    its committee's verdict, and under public-action its pooled belief as
    X, both read off a member's initial partition.  Where the committee is
    not split, the engine's common action under public-action must be the
    verdict, since the other agents defer to it."""
    codes, xs = protocol_outcome_table(scenario, kind, space)
    if not isinstance(scenario.structure, SenateStaged):
        return codes, xs
    committee = scenario.initial_partitions(space)[0]
    labels, values = block_beliefs(space, committee)
    beliefs = [values[c] for c in labels[committee.labels].tolist()]
    verdicts = np.array([action_code(b) for b in beliefs], dtype=np.int8)
    if kind == PUBLIC_ACTION:
        decided = verdicts != TIE
        assert np.array_equal(codes[decided], verdicts[decided]), scenario.name
        xs = np.array([float(b) for b in beliefs])
    return verdicts, xs


def trial_law(space, codes: np.ndarray) -> tuple[Fraction, Fraction, Fraction]:
    """``(success, tie, failure)`` of per-profile action codes under the
    space's exact masses: success where the code is the state's singleton."""
    mass = {}
    for state, weights in enumerate((space.w0, space.w1)):
        for code, w in zip(codes.tolist(), weights.tolist()):
            outcome = "tie" if code == TIE else ACTION_SETS[code] == {state}
            mass[outcome] = mass.get(outcome, 0) + int(w)
    return tuple(Fraction(mass.get(k, 0), space.den) for k in (True, "tie", False))


def by_statistic(statistics: np.ndarray, codes: np.ndarray, xs: np.ndarray):
    """The per-profile table ``codes, xs`` grouped by the profiles'
    ``statistics``: the distinct statistics, in the shape drawn, with the
    code and X of each.  Profiles of one statistic whose codes or X differ
    raise ``AssertionError``, as the statistic would then not decide the
    outcome."""
    groups: dict = {}
    for i, row in enumerate(statistics.reshape(len(statistics), -1).tolist()):
        groups.setdefault(tuple(row), []).append(i)
    for members in groups.values():
        assert len(set(codes[members].tolist())) == 1, "codes differ within a statistic"
        assert len({x.tobytes() for x in xs[members]}) == 1, "X differs within a statistic"
    first = [members[0] for members in groups.values()]
    return statistics[first], codes[first], xs[first]


def table_outcomes(statistics: np.ndarray, codes: np.ndarray, xs: np.ndarray):
    """Rows of statistics to (action codes, X), read off the distinct
    ``statistics`` and their ``codes, xs`` (``by_statistic``'s): the
    enumerated stand-in for a structure's ``trial_outcomes``."""
    rows = statistics.reshape(len(statistics), -1).tolist()
    index = {tuple(row): i for i, row in enumerate(rows)}

    def outcome(drawn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        at = [index[tuple(row)] for row in drawn.reshape(len(drawn), -1).tolist()]
        return codes[at], xs[at]

    return outcome


def posterior_belief(space, block) -> Fraction:
    """Exact P(S=1 | block) = weight(S=1, block) / weight(block)."""
    index = positions(space)
    rows = [index[p] for p in block if p in index]
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
        refined[listener] = Partition(space, np.array(labels, dtype=np.int64))
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


def parity_weights(n: int) -> dict:
    """Uniform bits whose parity is the state."""
    w = Fraction(1, 2**n)
    out = {}
    for profile in itertools.product((0, 1), repeat=n):
        out[(sum(profile) % 2, profile)] = w
    return out


def flip_classes(n: int) -> list:
    """(bits, proxy) of every flip-family profile: the proxy is 1 on 3n/4
    agents and 0 on the rest, so a profile with 3n/4 ones carries proxy 1."""
    high = n * 3 // 4
    out = []
    for ones, match in ((high, 1), (n - high, 0)):
        for positions in itertools.combinations(range(n), ones):
            inside = set(positions)
            out.append((tuple(1 if i in inside else 0 for i in range(n)), match))
    return out


def flip_weights(q: Fraction, n: int) -> dict:
    """A hidden proxy equal to the state w.p. q, shown to a uniformly random
    3n/4 of the agents and complemented for the rest."""
    count = math.comb(n, n * 3 // 4)
    out = {}
    for profile, match in flip_classes(n):
        for state in (0, 1):
            agree = q if (match == state) else 1 - q
            w = Fraction(1, 2) * agree / count
            if w > 0:
                out[(state, profile)] = out.get((state, profile), Fraction(0)) + w
    return out


def two_bit_weights(q: Fraction, n: int) -> dict:
    """Parity first bits and flip-family second bits, signals as (b1, b2)."""
    count = math.comb(n, n * 3 // 4)
    parity_w = Fraction(1, 2 ** (n - 1))
    out = {}
    for b1 in itertools.product((0, 1), repeat=n):
        state = sum(b1) % 2
        for b2, match in flip_classes(n):
            agree = q if (match == state) else 1 - q
            w = Fraction(1, 2) * parity_w * agree / count
            if w > 0:
                out[(state, tuple(zip(b1, b2)))] = w
    return out


def structure_weights(scenario) -> dict:
    """(state, profile) -> Fraction of a parity, flip or two-bit scenario,
    straight from the definition."""
    structure, n = scenario.structure, scenario.n
    if isinstance(structure, ParityBits):
        return parity_weights(n)
    if isinstance(structure, ExchangeableFlip):
        return flip_weights(structure.q, n)
    if isinstance(structure, TwoBitCombo):
        return two_bit_weights(structure.flip.q, n)
    raise TypeError(f"no reference weights for {type(structure).__name__}")


def per_agent_announcement(kind, space, partition):
    """Per-profile codes of one agent's belief, or of its optimal action set
    decided from that belief as a Fraction, and the values they stand for."""
    codes, values = block_beliefs(space, partition)
    if kind == PUBLIC_ACTION:
        actions = np.array([action_code(b) for b in values], dtype=np.int64)
        return actions[codes][partition.labels], ACTION_SETS
    return codes[partition.labels], values


def per_agent_fixed_point(kind, space, partitions, profile=None, network=None):
    """Final partitions and trace of a protocol, every agent refined by what
    was heard and announcing on its own, once per agent and round."""
    where = None if profile is None else space.position(profile)
    if kind == NETWORK_BELIEF and network is None:
        network = Digraph.ring(space.n)
    partitions = list(partitions)
    trace = ProtocolTrace(kind=kind)
    while True:
        said = {}
        if kind == NETWORK_BELIEF:
            new = list(partitions)
            for u, w in network.edges:
                codes, values = per_agent_announcement(kind, space, new[u])
                new[w] = new[w].refine(codes)
                if where is not None:
                    said.setdefault(str(u), values[codes[where]])
        else:
            told = [per_agent_announcement(kind, space, p) for p in partitions]
            if kind == PUBLIC_STATISTIC:
                heard, means = mean_beliefs(*zip(*told))
                if where is not None:
                    said["public"] = means[heard[where]]
            else:
                heard = joint_codes(codes for codes, _ in told)[0]
                if where is not None:
                    for u, (codes, vals) in enumerate(told):
                        said[str(u)] = vals[codes[where]]
            new = [p.refine(heard) for p in partitions]
        trace.rounds.append(ProtocolRound(tuple(said.items()), tuple(p.block_count for p in new)))
        if new == partitions:
            return partitions, trace
        partitions = new


def per_agent_outcome_table(scenario, kind, space):
    """Per profile, the reported action code and the belief X, from every
    agent's own belief there as a Fraction: public-action's X is the mean
    belief, the belief protocols' the common one."""
    final, _ = per_agent_fixed_point(kind, space, scenario.initial_partitions(space))
    columns = []
    for p in final:
        codes, values = block_beliefs(space, p)
        columns.append([values[c] for c in codes[p.labels].tolist()])
    codes, xs = [], []
    for beliefs in zip(*columns):
        actions = {action_code(b) for b in beliefs}
        if kind == PUBLIC_ACTION:
            assert len(actions) == 1
            xs.append(float(sum(beliefs) / len(beliefs)))
        else:
            assert len(set(beliefs)) == 1
            xs.append(float(beliefs[0]))
        codes.append(actions.pop())
    return codes, xs


def reference_count_law(model, n):
    """The per-row count law: every count vector in lexicographic order, its
    multinomial coefficient and mass products rebuilt over all symbols."""
    den, pairs = integer_weights(model)

    def count_vectors(total, bins):
        if bins == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in count_vectors(total - first, bins - 1):
                yield (first,) + rest

    def multinomial_coefficient(counts):
        out, remaining = 1, sum(counts)
        for c in counts:
            out *= math.comb(remaining, c)
            remaining -= c
        return out

    def rows():
        for counts in count_vectors(n, len(pairs)):
            w0 = w1 = multinomial_coefficient(counts)
            for (a0, a1), c in zip(pairs, counts):
                w0 *= a0**c
                w1 *= a1**c
            yield counts, w0, w1

    return 2 * den**n, rows()


def reference_pooled_summary(model, n):
    """The pooled law decided one count vector at a time."""
    denominator, rows = reference_count_law(model, n)
    success = tie = failure = 0
    errors = []
    for _counts, w0, w1 in rows:
        if w0 == w1:
            tie += w0 + w1
        else:
            success += max(w0, w1)
            failure += min(w0, w1)
        errors.append(Fraction(w0 * w1, w0 + w1))
    while len(errors) > 1:
        errors = [sum(errors[i : i + 2]) for i in range(0, len(errors), 2)]
    return ExactSummary(
        success=Fraction(success, denominator),
        tie=Fraction(tie, denominator),
        failure=Fraction(failure, denominator),
        msbe=errors[0] / denominator,
    )


def reference_iid_counts(p: np.ndarray, rng, states: np.ndarray, n: int) -> np.ndarray:
    """Each trial's counts over the k symbols of n draws, the row
    ``p[state]`` of probabilities: one ``rng.choice`` per state draws rows
    of symbols, and one row-offset ``bincount`` counts them."""
    k = p.shape[1]
    counts = np.empty((len(states), k), dtype=np.int64)
    for state in (0, 1):
        rows = states == state
        size = int(rows.sum())
        symbols = rng.choice(k, size=(size, n), p=p[state]) + k * np.arange(size)[:, None]
        counts[rows] = np.bincount(symbols.ravel(), minlength=k * size).reshape(size, k)
    return counts


def reference_geometric_tail(depth: int, ratio: Fraction) -> tuple[tuple, tuple, tuple]:
    """``(alphabet, mu0, mu1)`` of the geometric tail: the weight of k under
    state 1 is ratio^|k| times the exact value of the float e^(k/2), as a
    Fraction, over their sum; state 0 mirrors k to -k."""
    symbols = [k for k in range(-depth, depth + 1) if k != 0]
    raw = {k: ratio ** abs(k) * Fraction(math.exp(k / 2.0)) for k in symbols}
    total = sum(raw.values())
    mu1 = tuple(raw[k] / total for k in symbols)
    mu0 = tuple(raw[-k] / total for k in symbols)
    return tuple(symbols), mu0, mu1


def reference_pooled_draw(model, n: int):
    """``IidSignals(model).pooled_sampler(n)`` as it was before the tie
    screen: each row's log-odds and error bound are row sums over all rows.
    Like it, it draws the given states' counts and returns (action codes, X)."""
    p = IidSignals(model)._probabilities()
    logs = np.array([[math.log(a) for a in pair] for pair in reduced_odds(model)])
    z = logs[:, 1] - logs[:, 0]
    error_scale = (len(logs) + 2) * np.finfo(float).eps * np.abs(logs).sum(axis=1)

    def draw(rng, states):
        counts = np.empty((len(states), len(logs)), dtype=np.int64)
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
        return actions, beliefs

    return draw
