"""The exact engine against a small frozenset/Fraction reference.

The reference below re-derives every protocol's fixed point the direct way:
partitions as sets of frozensets, weights as Fractions, announcements as
per-profile values, refinement by grouping each block on what was heard.
The engine must match it block for block, round by round, with identical
announced Fractions.
"""

import hashlib
import itertools
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    blocks_of,
    partition_of_blocks,
    posterior_belief,
    profile_statistics,
    protocol_outcome_table,
    space_over,
    structure_weights,
)
from reference import is_common_knowledge as reference_common_knowledge

from agreelab import dynamics
from agreelab.cli import main
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PROTOCOL_KINDS,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    announced_codes,
    fixed_point_partitions,
    fold_mean,
    mean_beliefs,
    run_protocol,
)
from agreelab.harness import RNG_VERSION
from agreelab.knowledge import (
    ACTION_SETS,
    Partition,
    action_function,
    belief_function,
    block_beliefs,
    dense_codes,
    is_common_knowledge,
    joint_codes,
    optimal_action_set,
    own_signal_partitions,
    pooled_posterior,
    trivial_partition,
)
from agreelab.scenarios import (
    SenateStaged,
    geometric_tail,
    iid_binary,
    iid_custom,
    parity,
    senate,
    two_bit,
    uncorrelated_tight,
)
from agreelab.signals import SignalModel

# ---------------------------------------------------------------------------
# the reference engine
# ---------------------------------------------------------------------------


def reference_weights(scenario) -> dict:
    """(state, profile) -> Fraction, straight from the structure's definition."""
    structure = scenario.structure
    if not hasattr(structure, "model"):
        return {k: w for k, w in structure_weights(scenario).items() if w}
    model = structure.model
    out = {}
    for profile in itertools.product(model.support, repeat=scenario.n):
        for state in (0, 1):
            w = Fraction(1, 2)
            for symbol in profile:
                w *= model.weight(state, symbol)
            out[(state, profile)] = w
    return out


def group(profiles, key) -> list:
    blocks = {}
    for profile in profiles:
        blocks.setdefault(key(profile), set()).add(profile)
    return [frozenset(b) for b in blocks.values()]


def refine(partition, key) -> set:
    return {piece for block in partition for piece in group(block, key)}


def majority(bits) -> int:
    """1, -1 or 0 as ones outnumber zeros, zeros outnumber ones, or neither."""
    return (2 * sum(bits) > len(bits)) - (2 * sum(bits) < len(bits))


def reference_initial(scenario, profiles) -> list:
    structure = scenario.structure
    if isinstance(structure, SenateStaged):
        m = structure.senate_size
        return [
            set(group(profiles, lambda p: p[:m]))
            if u < m
            else set(group(profiles, lambda p, u=u: (p[u], majority(p[:m]))))
            for u in range(scenario.n)
        ]
    return [set(group(profiles, lambda p, u=u: p[u])) for u in range(scenario.n)]


def reference_fixed_point(kind, scenario, realized=None, edges=None):
    """Final partitions (sets of frozensets) and, per round, the block counts
    and the values announced at ``realized``."""
    n = scenario.n
    weights = reference_weights(scenario)
    mass, ones = {}, {}
    for (state, profile), w in weights.items():
        mass[profile] = mass.get(profile, 0) + w
        ones[profile] = ones.get(profile, 0) + (w if state else 0)
    profiles = sorted(mass)

    def belief_of(partition):
        value = {}
        for block in partition:
            b = Fraction(sum(ones[p] for p in block), sum(mass[p] for p in block))
            value.update(dict.fromkeys(block, b))
        return value

    partitions = reference_initial(scenario, profiles)
    if edges is None:
        edges = [(u, (u + 1) % n) for u in range(n) if n > 1]  # a lone agent hears no one
    rounds = []
    while True:
        said = {}
        if kind == NETWORK_BELIEF:
            new = list(partitions)
            for u, w in sorted(edges):
                value = belief_of(new[u])
                new[w] = refine(new[w], value.__getitem__)
                if realized is not None:
                    said.setdefault(str(u), value[realized])
        else:
            beliefs = [belief_of(p) for p in partitions]
            if kind == PUBLIC_STATISTIC:
                mean = {p: sum(b[p] for b in beliefs) / n for p in profiles}
                heard = lambda p: mean[p]  # noqa: E731
                if realized is not None:
                    said["public"] = mean[realized]
            else:
                wrap = optimal_action_set if kind == PUBLIC_ACTION else (lambda b: b)
                heard = lambda p: tuple(wrap(b[p]) for b in beliefs)  # noqa: E731
                if realized is not None:
                    said.update((str(u), wrap(b[realized])) for u, b in enumerate(beliefs))
            new = [refine(p, heard) for p in partitions]
        rounds.append((tuple(said.items()), tuple(len(p) for p in new)))
        if new == partitions:
            return partitions, rounds
        partitions = new


def assert_matches_reference(kind, scenario, realized_profiles=None, network=None):
    space = scenario.outcome_space()
    edges = network.edges if network is not None else None
    for realized in realized_profiles or [space.profiles[0], space.profiles[-1]]:
        final, trace = fixed_point_partitions(
            kind, space, scenario.initial_partitions(space), realized, network
        )
        want_final, want_rounds = reference_fixed_point(kind, scenario, realized, edges)
        assert [set(blocks_of(p)) for p in final] == want_final
        got_rounds = [(r.announced, r.block_counts) for r in trace.rounds]
        assert got_rounds == want_rounds
        for (announced, _), (wanted, _) in zip(got_rounds, want_rounds):
            for (_, value), (_, want) in zip(announced, wanted):
                assert type(value) is type(want)
    return space, final


@st.composite
def rational_models(draw):
    """2-4 symbols with small rational weights, in a shuffled alphabet order."""
    size = draw(st.integers(2, 4))
    raw = draw(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=size, max_size=size)
    )
    raw0, raw1 = zip(*raw)
    mu0 = tuple(Fraction(r, sum(raw0)) for r in raw0)
    mu1 = tuple(Fraction(r, sum(raw1)) for r in raw1)
    assume(mu0 != mu1)
    alphabet = draw(st.permutations("abcd"))[:size]
    return SignalModel(alphabet=tuple(alphabet), mu0=mu0, mu1=mu1)


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------


class TestAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(model=rational_models(), n=st.integers(1, 4))
    def test_random_models_under_every_protocol(self, model, n):
        scenario = iid_custom(n, model)
        for kind in PROTOCOL_KINDS:
            assert_matches_reference(kind, scenario)
        space = scenario.outcome_space()
        final, _ = fixed_point_partitions(PUBLIC_BELIEF, space, own_signal_partitions(space))
        beliefs = [belief_function(space, p) for p in final]
        for profile in space.profiles:
            assert {b(profile) for b in beliefs} == {pooled_posterior(space, profile)}
        belief = [lambda block: posterior_belief(space, block)] * n
        assert reference_common_knowledge(space, final, belief)
        codes = [announced_codes(PUBLIC_BELIEF, space, p)[0] for p in final]
        assert is_common_knowledge(final, codes)
        initial = own_signal_partitions(space)
        codes = [announced_codes(PUBLIC_BELIEF, space, p)[0] for p in initial]
        assert is_common_knowledge(initial, codes) == reference_common_knowledge(
            space, initial, belief
        )
        final, _ = fixed_point_partitions(PUBLIC_ACTION, space, own_signal_partitions(space))
        action = [lambda block: optimal_action_set(posterior_belief(space, block))] * n
        assert reference_common_knowledge(space, final, action)
        codes = [announced_codes(PUBLIC_ACTION, space, p)[0] for p in final]
        assert is_common_knowledge(final, codes)
        for p in final:
            acts, belief = action_function(space, p), belief_function(space, p)
            assert all(acts(q) == optimal_action_set(belief(q)) for q in space.profiles)

    @pytest.mark.parametrize(
        "scenario",
        [parity(3), uncorrelated_tight(4), two_bit(4), senate(5, senate_size=2)],
        ids=lambda s: s.name,
    )
    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_named_scenarios(self, scenario, kind):
        space, _ = assert_matches_reference(kind, scenario)
        realized = space.profiles[-1]
        result = run_protocol(kind, space, scenario.initial_partitions(space), realized)
        assert result.beliefs == tuple(
            posterior_belief(space, next(b for b in blocks_of(p) if realized in b))
            for p in result.partitions
        )
        belief = [lambda block: posterior_belief(space, block)] * scenario.n
        action = [lambda block: optimal_action_set(posterior_belief(space, block))] * scenario.n
        assert result.beliefs_common_knowledge == reference_common_knowledge(
            space, result.partitions, belief
        )
        assert result.actions_common_knowledge == reference_common_knowledge(
            space, result.partitions, action
        )

    def test_complete_digraph_network(self):
        network = Digraph(3, tuple((u, w) for u in range(3) for w in range(3) if u != w))
        assert_matches_reference(
            NETWORK_BELIEF, iid_binary(3, Fraction(3, 5)), network=network
        )

    def test_integer_sums_use_int64_when_the_denominator_fits(self):
        space = iid_binary(6, Fraction(2, 3)).outcome_space()
        assert space.den == 2 * 3**6
        assert space.w0.dtype == np.int64

    def test_python_int_fallback(self):
        """geometric_tail's dyadic weights need a denominator far past 2**63,
        so its sums run on Python ints, with the same results."""
        scenario = geometric_tail(2)
        space = scenario.outcome_space()
        assert space.den >= 2**63
        assert space.w0.dtype == object and space.w1.dtype == object
        for kind in (PUBLIC_BELIEF, PUBLIC_ACTION):
            assert_matches_reference(kind, scenario, realized_profiles=[space.profiles[7]])


class TestPartitionLabels:
    def test_equal_partitions_have_equal_labels(self):
        space = iid_binary(3, Fraction(2, 3)).outcome_space()
        own = own_signal_partitions(space)
        rebuilt = partition_of_blocks(blocks_of(own[1]))
        assert rebuilt == own[1]
        assert list(rebuilt.labels) == list(own[1].labels)
        assert list(own[1].labels) == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_refine_by_key_matches_code_refinement(self):
        space = iid_binary(3, Fraction(2, 3)).outcome_space()
        own = own_signal_partitions(space)
        by_key = own[0].refine_by_key(lambda profile: profile[2])
        assert by_key == own[0].refine(space.symbols[:, 2])
        assert by_key.block_count == 4
        assert own[0].refine_by_key(lambda profile: profile[0]) is own[0]


def reference_dense_codes(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`dense_codes` by sorting every input with ``np.unique``."""
    distinct, inverse = np.unique(keys, return_inverse=True)
    first = np.full(len(distinct), len(keys), dtype=np.int64)
    np.minimum.at(first, inverse, np.arange(len(keys)))
    order = np.argsort(first)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[order] = np.arange(len(distinct))
    return rank[inverse], first[order]


@st.composite
def key_columns(draw):
    """Non-negative keys whose range (largest key + 1) is narrow, at the
    counting relabel's limit ``4 * len + 64`` or one past it, or wide."""
    size = draw(st.integers(0, 48))
    dtype = draw(st.sampled_from([np.uint8, np.int64]))
    top = 255 if dtype is np.uint8 else 2**62
    limit = 4 * size + 64
    span = draw(st.sampled_from([2, size + 1, limit, limit + 1, top + 1]))
    span = draw(st.integers(1, min(span, top + 1)))
    keys = draw(st.lists(st.integers(0, span - 1), min_size=size, max_size=size))
    if keys:
        keys[draw(st.integers(0, size - 1))] = span - 1
    return np.array(keys, dtype=dtype)


class TestDenseCodes:
    @staticmethod
    def assert_matches_reference(keys):
        labels, first = dense_codes(keys)
        expected_labels, expected_first = reference_dense_codes(keys)
        assert labels.dtype == first.dtype == np.int64
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(first, expected_first)

    @given(key_columns())
    @settings(deadline=None)
    def test_matches_the_sorting_relabel(self, keys):
        self.assert_matches_reference(keys)

    @pytest.mark.parametrize(
        "keys,dtype",
        [
            (keys, dtype)
            for keys in ([], [0], [7], [3, 3, 1, 0, 1], [75, 0, 75], [76, 5, 76], [2**62, 0])
            for dtype in (np.uint8, np.int64)
            if max(keys, default=0) <= np.iinfo(dtype).max
        ],
        ids=str,
    )
    def test_edge_cases(self, keys, dtype):
        """Empty, single keys, and ranges of 4 * 3 + 64 and one more."""
        self.assert_matches_reference(np.array(keys, dtype=dtype))

    @given(st.data())
    @settings(deadline=None)
    def test_refine_returns_self_exactly_when_nothing_splits(self, data):
        size = data.draw(st.integers(0, 30))
        blocks = data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size))
        labels = reference_dense_codes(np.array(blocks, dtype=np.int64))[0]
        partition = Partition(space_over([(i,) for i in range(size)], 1), labels)
        per_block = data.draw(st.lists(st.integers(0, 6), min_size=6, max_size=6))
        codes = np.array(per_block)[labels]
        if size and data.draw(st.booleans()):
            codes[data.draw(st.integers(0, size - 1))] = data.draw(st.integers(0, 6))
        codes = codes.astype(data.draw(st.sampled_from([np.uint8, np.int64])))
        constant = all(
            len({c for c, b in zip(codes.tolist(), labels.tolist()) if b == block}) <= 1
            for block in range(partition.block_count)
        )
        refined = partition.refine(codes)
        assert (refined is partition) == constant
        width = int(codes.max(initial=0)) + 1
        expected = reference_dense_codes(labels * width + codes)[0]
        assert np.array_equal(refined.labels, expected)
        assert refined.block_count == int(expected.max(initial=-1)) + 1

    def test_joint_codes_of_narrow_columns_do_not_overflow(self):
        """Nine uint8 bit columns have 512 distinct rows, so 512 codes."""
        rows = np.array(list(itertools.product((0, 1), repeat=9)), dtype=np.uint8)
        codes, first = joint_codes(rows.T)
        assert codes.tolist() == list(range(512))
        assert first.tolist() == list(range(512))


# ---------------------------------------------------------------------------
# golden outputs
# ---------------------------------------------------------------------------

# sha256 of the per-profile outcome tables (profile, reported action set,
# belief X), one line per profile, as the frozenset engine tabulated them.
# They do not depend on the random streams.
OUTCOME_TABLES = {
    ("iid_binary(8)", PUBLIC_BELIEF): "618b5d602fcfb1578649b933f69e16d7368f5a8d13f7be8992ae64406f25d3a9",
    ("iid_binary(8)", PUBLIC_ACTION): "618b5d602fcfb1578649b933f69e16d7368f5a8d13f7be8992ae64406f25d3a9",
    ("iid_binary(8)", PUBLIC_STATISTIC): "618b5d602fcfb1578649b933f69e16d7368f5a8d13f7be8992ae64406f25d3a9",
    ("iid_binary(8)", NETWORK_BELIEF): "618b5d602fcfb1578649b933f69e16d7368f5a8d13f7be8992ae64406f25d3a9",
    ("geometric_tail(2)", PUBLIC_ACTION): "c06d3f55f569ed2ee01a62a318b5777d560a4770abf71b80caca6441294d5941",
    ("geometric_tail(3)", PUBLIC_ACTION): "82563d264cd699f4493e3dc911bd8c376461a6a0d9f3c7aa80edc891b1ef0971",
    ("geometric_tail(3)", PUBLIC_STATISTIC): "68f983c00ec388d1d51776626cc447bfc67a7c53c29409a702e9eed6f50d5052",
    # The senate's tables hold its committee's verdict, and under
    # public-action its pooled belief as X, as on the analytic route (both
    # senate public-action digests were recorded with that X).
    ("senate(5, 2)", PUBLIC_ACTION): "710aa4fe722490da82ec4f7ae53cc7ac237ead34e0efcd28c2069d1866be0abd",
    ("senate(5, 3)", PUBLIC_BELIEF): "0f8b1e079cff7a25d005257f8f179ad26d40cb93dafaf6da87099bb02705a7a5",
    ("parity(3)", PUBLIC_BELIEF): "536483d5088670f3e488d58c3b365a3d6e37ccbd5d4035861e1c7880e34aa193",
    ("two_bit(4)", PUBLIC_BELIEF): "dae7bf8b38744161d1fa4e14be6a84ced0cd6f8d0fcf35cc3762322acb7bc613",
    ("uncorrelated_tight(8)", PUBLIC_ACTION): "d7807b4716d1af0aad8de5f33bdd764217c2f1048ef9ea804b57939c3154b0a1",
    # A committee of more than eight members: its uint8 symbol columns must
    # fold into distinct codes (public-belief recorded while its partitions
    # were still built from profile tuples).
    ("senate(12, 9)", PUBLIC_BELIEF): "4d975c2b2fd43a6629ac0d2ae31861930e0008d9a60628a1770bf1933cd974b9",
    ("senate(12, 9)", PUBLIC_ACTION): "5d5df029e3c21d2c4df8fb4c09a9f75401026f8006117fd0049abfeb82730d20",
    # Python-int spaces whose beliefs reduce to small pairs (1/2 on the
    # trivial partition), so the belief codes fold as object arrays.
    **{
        (f"iid_binary({n}, huge)", kind): digest
        for n, digest in (
            (2, "a2c4c3727547e7c76dd8fd53d41ea3a5d11f6993122e84c34cff7ee3c0e0c574"),
            (3, "4950c96d603adc7b71991dedf9e2d7639bda9539fa5fbcf8cab4b53df6e5ae08"),
        )
        for kind in PROTOCOL_KINDS
    },
}
HUGE_ACCURACY = Fraction(2**70 + 1, 2**71)
TABLE_SCENARIOS = {
    "iid_binary(8)": lambda: iid_binary(8, Fraction(2, 3)),
    "geometric_tail(2)": lambda: geometric_tail(2),
    "geometric_tail(3)": lambda: geometric_tail(3),
    "senate(5, 2)": lambda: senate(5, 2),
    "senate(5, 3)": lambda: senate(5, 3),
    "senate(12, 9)": lambda: senate(12, 9),
    "parity(3)": lambda: parity(3),
    "two_bit(4)": lambda: two_bit(4),
    "uncorrelated_tight(8)": lambda: uncorrelated_tight(8),
    "iid_binary(2, huge)": lambda: iid_binary(2, HUGE_ACCURACY),
    "iid_binary(3, huge)": lambda: iid_binary(3, HUGE_ACCURACY),
}


def test_python_int_space_with_a_half_belief():
    space = iid_binary(2, HUGE_ACCURACY).outcome_space()
    assert space.w0.dtype == object
    codes, values = block_beliefs(space, trivial_partition(space))
    assert codes.tolist() == [0] and values == [Fraction(1, 2)]


def table_digest(profiles, codes, beliefs) -> str:
    assert codes.dtype == np.int8 and beliefs.dtype == np.float64
    text = "\n".join(
        f"{profile!r} {sorted(ACTION_SETS[code])} {x!r}"
        for profile, code, x in zip(profiles, codes.tolist(), beliefs.tolist())
    )
    return hashlib.sha256(text.encode()).hexdigest()


def route_table(scenario, kind):
    """The action codes and X of the structure's ``trial_outcomes`` per
    profile of the scenario's space, in the order of its sorted profiles:
    of each profile's statistic, as the structure draws it."""
    outcome = scenario.structure.trial_outcomes(scenario.n, kind)
    return outcome(profile_statistics(scenario, scenario.outcome_space()))


@pytest.mark.parametrize(
    "name,kind",
    [
        (name, kind)
        for name, kind in OUTCOME_TABLES
        # The senate reports its committee's verdict, which only its count
        # route tabulates.
        if not isinstance(TABLE_SCENARIOS[name]().structure, SenateStaged)
    ],
)
def test_outcome_tables_are_unchanged(name, kind):
    scenario = TABLE_SCENARIOS[name]()
    space = scenario.outcome_space()
    codes, beliefs = protocol_outcome_table(scenario, kind, space)
    assert table_digest(space.profiles, codes, beliefs) == OUTCOME_TABLES[(name, kind)]


@pytest.mark.parametrize("name,kind", list(OUTCOME_TABLES))
def test_count_route_gives_the_recorded_tables(name, kind):
    """Every structure's ``trial_outcomes``, as ``run_monte_carlo`` reads
    them, gives the recorded tables: by counts, or in closed form."""
    scenario = TABLE_SCENARIOS[name]()
    profiles = scenario.outcome_space().profiles
    assert table_digest(profiles, *route_table(scenario, kind)) == OUTCOME_TABLES[(name, kind)]


def body_digest(capsys) -> str:
    """sha256 of the captured output after its generator line, which must
    name the current ``RNG_VERSION``."""
    generator, body = capsys.readouterr().out.split("\n", 1)
    assert generator == f"# generator={RNG_VERSION}"
    return hashlib.sha256(body.encode()).hexdigest()


# The CSVs ``simulate`` prints under the current RNG_VERSION.
HEADER = (
    "# generator={}\n"
    "scenario,n,mode,trials,successes,ties,failures,success_rate,stderr,msbe,seed\n"
)
IID8_ROW = (
    '"iid_binary(8, 2/3)",8,{},1000,743,158,99,0.82,0.012149074038789953,'
    "0.1219279762543443,7\n"
)
SENATE12_ROW = (
    "senate(12),12,{},1000,868,0,132,0.868,0.010704017937204702,0.08024735197478158,7\n"
)
GOLDEN = {
    ("iid_binary", "8", "public-belief"): IID8_ROW.format("public-belief"),
    ("iid_binary", "8", "public-action"): IID8_ROW.format("public-action"),
    ("iid_binary", "8", "statistic"): IID8_ROW.format("public-statistic"),
    ("iid_binary", "8", "network"): IID8_ROW.format("network-belief"),
    ("geometric_tail", "2", "public-action"): (
        '"geometric_tail(2, K=8)",2,public-action,1000,988,4,8,0.991,'
        "0.0029864694875387575,0.008549721743540706,7\n"
    ),
    ("geometric_tail", "3", "statistic"): (
        '"geometric_tail(3, K=8)",3,public-statistic,1000,996,0,4,0.996,'
        "0.0019959959919799443,0.0027087518985563865,7\n"
    ),
    # The structures whose draws no other pin covers: parity, flip, two-bit
    # and the senate.
    ("parity", "3", "public-belief"): (
        "parity(3),3,public-belief,1000,0,1000,0,0.513,0.015806043148112688,0.25,7\n"
    ),
    ("uncorrelated_tight", "8", "public-action"): (
        "uncorrelated_tight(8),8,public-action,1000,889,0,111,0.889,"
        "0.00993373041711924,0.09880078285596405,7\n"
    ),
    ("two_bit", "4", "public-belief"): (
        "two_bit(4),4,public-belief,1000,0,1000,0,0.491,0.015808826648426505,0.25,7\n"
    ),
    ("senate", "12", "public-belief"): SENATE12_ROW.format("public-belief"),
    ("senate", "12", "statistic"): SENATE12_ROW.format("public-statistic"),
    # The pooled draws of the same four structures.
    ("parity", "3", "pooled"): "parity(3),3,pooled,1000,1000,0,0,1.0,0.0,0.0,7\n",
    ("uncorrelated_tight", "8", "pooled"): (
        "uncorrelated_tight(8),8,pooled,1000,889,0,111,0.889,"
        "0.00993373041711924,0.09880078285596405,7\n"
    ),
    ("two_bit", "4", "pooled"): "two_bit(4),4,pooled,1000,1000,0,0,1.0,0.0,0.0,7\n",
    ("senate", "12", "pooled"): (
        "senate(12),12,pooled,1000,830,99,71,0.887,0.010011543337567888,0.08368389524010754,7\n"
    ),
}
GOLDEN_PARAMS = {"iid_binary": ["--param", "p=2/3"], "senate": ["--param", "senate_size=9"]}


@pytest.mark.parametrize("family,n,protocol", list(GOLDEN), ids=["-".join(k) for k in GOLDEN])
def test_simulate_csv_is_unchanged(family, n, protocol, capsys):
    argv = ["simulate", "--scenario", family, "--n", n, "--protocol", protocol,
            "--trials", "1000", "--seed", "7", "--format", "csv"]
    argv += GOLDEN_PARAMS.get(family, [])
    assert main(argv) == 0
    assert capsys.readouterr().out == HEADER.format(RNG_VERSION) + GOLDEN[(family, n, protocol)]


# sha256, below the generator line, of the CSVs of the largest geometric_tail
# in budget (2**21 pairs), as the enumerated engine printed them (13-19 s
# each on a 2-core Xeon VM; network 18 s and 448 MB).
AT_SCALE = {
    "public-belief": "7d64e55f5fdfdf775a447d9e5cd882a79643818d3f7d4cadf0732e9a4664d686",
    "public-action": "916342f1cb326fe42d505eb98c30a024e4b899acfb493d3ab47bdccfdcde200e",
    "statistic": "da96a295a9ea22a8842c278228e2475aa4f6ef51d145016e4556b409b84a918e",
    "network": "1900a0c81a692e94928f3a9d1de52491146600c59d7f4d0fdeeb888be058fffc",
}


@pytest.mark.parametrize("protocol", list(AT_SCALE))
def test_simulate_csv_at_the_top_of_the_budget_is_unchanged(protocol, capsys):
    argv = ["simulate", "--scenario", "geometric_tail", "--n", "5", "--protocol", protocol,
            "--trials", "1000", "--seed", "5", "--format", "csv"]
    assert main(argv) == 0
    assert body_digest(capsys) == AT_SCALE[protocol]


def test_simulate_csv_of_the_largest_int64_space_is_unchanged(capsys):
    """iid_binary(21), 2**22 pairs, as the enumerated engine printed its
    public-statistic and network-belief CSVs (6.8 s and 1.2 GB, 6.2 s and
    825 MB on a 2-core Xeon VM), below the generator line."""
    for protocol, digest in (
        ("statistic", "a79f40c6f2cbe2e0ebcc7e723063214009fe222705dd6785dee0d1cc6e9cbec5"),
        ("network", "108e83e82bb94c9ae27871b742540f056ea39a0194b413bc5cbb86c20637301f"),
    ):
        argv = ["simulate", "--scenario", "iid_binary", "--param", "p=2/3", "--n", "21",
                "--protocol", protocol, "--trials", "1000", "--seed", "5", "--format", "csv"]
        assert main(argv) == 0
        assert body_digest(capsys) == digest, protocol


# sha256, below the generator line, of geometric_tail(4)'s CSVs over three
# chunks (40,000 trials, seed 5), as the full count table printed them: later
# chunks reuse the count vectors that earlier chunks decided.
MULTI_CHUNK = {
    "public-action": "3818713503d7fbd7239a8bfb613c99ee1d4c84df2893fca1442bf20d12b132aa",
    "network": "46f902b159a0c47635efa644f9f3fce2985af858e265e51bc6ba3e5fbf9cd800",
}


@pytest.mark.parametrize("protocol", list(MULTI_CHUNK))
def test_simulate_csv_over_several_chunks_is_unchanged(protocol, capsys):
    argv = ["simulate", "--scenario", "geometric_tail", "--n", "4", "--protocol", protocol,
            "--trials", "40000", "--seed", "5", "--format", "csv"]
    assert main(argv) == 0
    assert body_digest(capsys) == MULTI_CHUNK[protocol]


#: An i.i.d. model in config form whose alphabet is unsorted and holds a
#: symbol of zero weight, so its support (c, a, d, b) is in neither order.
UNSORTED_MODEL = {
    "alphabet": ["c", "z", "a", "d", "b"],
    "mu0": ["1/2", "0", "1/4", "1/8", "1/8"],
    "mu1": ["1/8", "0", "1/4", "1/6", "11/24"],
}

# sha256, below the generator line, of the unsorted model's CSVs at n = 6
# over three chunks (40,000 trials, seed 3), as the draws numbered by rank in
# the sorted support printed them: the counts, and so the CSVs, do not depend
# on the order.
UNSORTED = {
    "pooled": "7dfc64c7ef282e1a3c0512942488ff95dc1ef0b596336672ff5b49a608d6435d",
    "public-belief": "c917e556bb9ca4b9638931cabb34f2861e85112cbc44a0003042206ef2e142c3",
    "public-action": "46c1ece3f452dce244dc9aef2cb4ba07f173119e44e9bb4d0cd3ec1daf265c82",
    "statistic": "2d39a4aadb407b47ed249dd236cb9dae590a59581b85fac9db0a99e111030120",
    "network": "2c38eb22b3afebd4ee0b94e87e6c9e6449a941012de5e9a33e84bc1ba6f9ff27",
}


@pytest.mark.parametrize("protocol", list(UNSORTED))
def test_simulate_csv_of_an_unsorted_alphabet_is_unchanged(protocol, tmp_path, capsys):
    config = tmp_path / "unsorted.json"
    config.write_text(json.dumps({"scenario": "iid_custom", "params": {"model": UNSORTED_MODEL},
                                  "n": 6}))
    argv = ["simulate", "--config", str(config), "--protocol", protocol,
            "--trials", "40000", "--seed", "3", "--format", "csv"]
    assert main(argv) == 0
    assert body_digest(capsys) == UNSORTED[protocol]


# sha256, below the generator line, of the senate's CSVs at the top of the
# budget (``senate_size=9``, n = 21, 2**22 pairs) and of public-action past
# it.
SENATE_AT_SCALE = {
    ("21", "public-belief"): "7d60b18077130c0ad22160ddf5e2144b236113ecc5d7af69a4a65701bdc2ebdd",
    ("21", "public-action"): "3008a87679198854b5a74ac1d8cbef0b5b0dabd9438671a9446889970ef3a7b9",
    ("21", "statistic"): "e13b594ca7f8a4c57bd161ef429d1b0e397434fc1204689e4a8085d7150048ca",
    ("21", "network"): "42a4da7366998b0e2229bb12c2d1750ca792c31b9bf5e6ecbd2dc1b7b2a890c6",
    ("400", "public-action"): "27bdf4356de3f6a206904e1e04017b48d6789df320ad1a36b3da554f4cb96690",
}
SENATE_RUNS = {
    "21": "--param senate_size=9 --trials 1000 --seed 5",
    "400": "--trials 3000 --seed 11",
}


@pytest.mark.parametrize(
    "n,protocol", list(SENATE_AT_SCALE), ids=["-".join(k) for k in SENATE_AT_SCALE]
)
def test_senate_csv_is_unchanged(n, protocol, capsys):
    argv = ["simulate", "--scenario", "senate", "--n", n, "--protocol", protocol, "--format", "csv"]
    assert main(argv + SENATE_RUNS[n].split()) == 0
    assert body_digest(capsys) == SENATE_AT_SCALE[(n, protocol)]


# sha256, below the generator line, of the senate's n = 21 CSVs (as in
# ``SENATE_RUNS``) as the enumerated engine printed them, its trials drawn as
# rows of n signals, one categorical call per state.
SENATE_ENUMERATED = {
    "public-belief": "f6c12fca0f4a99f09c834c47e3c4519b4599eaf8ebe3b0a00f82da8f1c02e892",
    "public-action": "4c86ba2cecc5e289cacf51f225f9c908047aeda606c3e3e9e7bc42362f424911",
    "statistic": "95acabf47b6ef05379fbd085b72ae084a265da6a8959f2b32b06acec96e6dddd",
    "network": "eab0ec9c96abf9de63ffbda0506aa21b8834b4ae0693f45cf76185b8bb931834",
}


def tallies_of_rows(structure, rng, states, n):
    """The committee's and the others' ones of rows of n signals drawn as
    the enumerated engine's CSVs drew them."""
    symbols = np.empty((len(states), n), dtype=np.int64)
    for state in (0, 1):
        rows = states == state
        symbols[rows] = rng.choice(2, size=(int(rows.sum()), n), p=structure._probabilities()[state])
    m = structure.senate_size
    return np.column_stack((symbols[:, :m].sum(axis=1), symbols[:, m:].sum(axis=1)))


@pytest.mark.parametrize("protocol", list(SENATE_ENUMERATED))
def test_senate_tallies_reprint_the_enumerated_csv(protocol, monkeypatch, capsys):
    """At the top of the budget, the senate's ``trial_outcomes`` of the two
    tallies of the rows the enumerated engine decided print its CSVs."""
    monkeypatch.setattr(SenateStaged, "draw_statistic", tallies_of_rows)
    argv = ["simulate", "--scenario", "senate", "--n", "21", "--protocol", protocol, "--format", "csv"]
    assert main(argv + SENATE_RUNS["21"].split()) == 0
    assert body_digest(capsys) == SENATE_ENUMERATED[protocol]


# ---------------------------------------------------------------------------
# the exact-mean and outcome-table kernels
# ---------------------------------------------------------------------------


@st.composite
def belief_columns(draw):
    """2-5 agents' beliefs per profile, as codes into per-agent value lists.

    Every agent's values are a permutation of one shared pool, so different
    combinations often share a mean.  Pool values ``(j/12 + offset) / 2``
    reduce to different denominators, so equal means also arise from
    different unreduced sums.  Denominators stay small (the ``int64`` path)
    or reach far above 2**63 (the Python-int path).
    """
    n = draw(st.integers(2, 5))
    bound = draw(st.sampled_from([50, 2**200]))
    fraction = st.integers(1, bound).flatmap(
        lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
    )
    offset = draw(fraction)
    twelfths = st.integers(0, 12).map(lambda j: (Fraction(j, 12) + offset) / 2)
    pool = draw(st.lists(st.one_of(fraction, twelfths), min_size=1, max_size=5, unique=True))
    values = [draw(st.permutations(pool)) for _ in range(n)]
    size = draw(st.integers(1, 30))
    code = st.integers(0, len(pool) - 1)
    columns = [
        np.array(draw(st.lists(code, min_size=size, max_size=size)), dtype=np.int64)
        for _ in range(n)
    ]
    return columns, values


class TestMeanKernels:
    @settings(max_examples=80, deadline=None)
    @given(data=belief_columns())
    def test_mean_beliefs_against_fractions(self, data):
        columns, values = data
        exact = [
            sum(vals[c] for vals, c in zip(values, combination)) / len(values)
            for combination in zip(*(c.tolist() for c in columns))
        ]
        codes, means = mean_beliefs(columns, values)
        codes = codes.tolist()
        for i, j in itertools.product(range(len(exact)), repeat=2):
            assert (codes[i] == codes[j]) == (exact[i] == exact[j])
        assert [means[c] for c in codes] == exact
        assert all(type(m) is Fraction for m in means)
        assert codes == dense_codes(np.array(codes))[0].tolist()
        pairs = [np.array([(b.numerator, b.denominator) for b in v], dtype=object).T for v in values]
        terms = ((nums[c], dens[c]) for c, (nums, dens) in zip(columns, pairs))
        num, den = fold_mean(terms, len(values))
        assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == exact
        assert (num / den).astype(np.float64).tolist() == [float(m) for m in exact]

    @settings(max_examples=80, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(0, 9),
                st.lists(
                    st.sampled_from([50, 2**200]).flatmap(
                        lambda bound: st.integers(1, bound).flatmap(
                            lambda d: st.integers(0, d).map(lambda k: Fraction(k, d))
                        )
                    ),
                    min_size=4,
                    max_size=4,
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_fold_mean_of_count_weighted_terms(self, data):
        """Terms ``c_j num_j / den_j`` over the slots, as public-action's
        count route passes them, fold to the exact count-weighted mean."""
        n = max(1, sum(c for c, _ in data))
        terms = [
            (np.array([c * b.numerator for b in row], dtype=object),
             np.array([b.denominator for b in row], dtype=object))
            for c, row in data
        ]
        exact = [sum(c * row[i] for c, row in data) / n for i in range(4)]
        num, den = fold_mean(terms, n)
        assert [Fraction(int(a), int(b)) for a, b in zip(num, den)] == exact
        assert (num / den).astype(np.float64).tolist() == [float(m) for m in exact]

    @pytest.mark.parametrize(
        "scenario", [geometric_tail(3), iid_binary(6, Fraction(3, 5))], ids=lambda s: s.name
    )
    def test_public_action_table_holds_the_rounded_exact_mean(self, scenario):
        space = scenario.outcome_space()
        final, _ = fixed_point_partitions(PUBLIC_ACTION, space, scenario.initial_partitions(space))
        beliefs = [belief_function(space, p) for p in final]
        _, xs = protocol_outcome_table(scenario, PUBLIC_ACTION, space)
        assert xs.tolist() == [
            float(sum(b(p) for b in beliefs) / scenario.n) for p in space.profiles
        ]

    def test_block_size_does_not_change_results(self, monkeypatch):
        """geometric_tail(3) averages 3,980 distinct belief combinations on the
        Python-int path; blocks of 7 must give the same tables and trace."""
        scenario = geometric_tail(3)
        space = scenario.outcome_space()
        realized = space.profiles[100]

        def run():
            tables = [
                protocol_outcome_table(scenario, kind, space)
                for kind in (PUBLIC_ACTION, PUBLIC_STATISTIC)
            ]
            final, trace = fixed_point_partitions(
                PUBLIC_STATISTIC, space, scenario.initial_partitions(space), realized
            )
            return tables, final, trace

        want_tables, want_final, want_trace = run()
        monkeypatch.setattr(dynamics, "MEAN_BLOCK", 7)
        got_tables, got_final, got_trace = run()
        for (want_codes, want_xs), (got_codes, got_xs) in zip(want_tables, got_tables):
            assert np.array_equal(want_codes, got_codes)
            assert want_xs.tobytes() == got_xs.tobytes()
        assert got_final == want_final
        assert got_trace.rounds == want_trace.rounds


SKEWED = SignalModel(
    ("a", "b", "c"),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 6), Fraction(1, 4), Fraction(7, 12)),
)


class TestOutcomeTableErrors:
    """With the fixed point replaced by the initial partitions, the agents
    disagree, and the oracle's table names the first profile where they do."""

    @pytest.mark.parametrize(
        "scenario", [iid_custom(3, SKEWED), geometric_tail(2)], ids=lambda s: s.name
    )
    @pytest.mark.parametrize("kind", PROTOCOL_KINDS)
    def test_first_offending_profile_is_named(self, scenario, kind, monkeypatch):
        space = scenario.outcome_space()
        beliefs = [belief_function(space, p) for p in scenario.initial_partitions(space)]
        for profile in space.profiles:
            values = {b(profile) for b in beliefs}
            actions = {optimal_action_set(v) for v in values}
            if len(actions) > 1 or (kind != PUBLIC_ACTION and len(values) > 1):
                what = "actions" if len(actions) > 1 else "beliefs"
                break
        monkeypatch.setattr(
            "reference.fixed_point_partitions", lambda kind, space, initial: (initial, None)
        )
        message = f"fixed point of {kind} left {what} unequal on profile {profile!r}"
        with pytest.raises(AssertionError, match=re.escape(message)):
            protocol_outcome_table(scenario, kind, space)
