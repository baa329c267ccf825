"""The exact engine against a small frozenset/Fraction reference.

The reference below re-derives every protocol's fixed point the direct way:
partitions as sets of frozensets, weights as Fractions, announcements as
per-profile values, refinement by grouping each block on what was heard.
The engine must match it block for block, round by round, with identical
announced Fractions.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from agreelab.cli import main
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PROTOCOL_KINDS,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    fixed_point_partitions,
    run_protocol,
)
from agreelab.knowledge import (
    Partition,
    belief_function,
    is_common_knowledge,
    optimal_action_set,
    own_signal_partitions,
    pooled_posterior,
    posterior_belief,
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
    if hasattr(structure, "weights"):
        return {k: w for k, w in structure.weights(scenario.n).items() if w}
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


def reference_initial(scenario, profiles) -> list:
    structure = scenario.structure
    if isinstance(structure, SenateStaged):
        m = structure.senate_size
        return [
            set(group(profiles, lambda p: p[:m]))
            if u < m
            else set(group(profiles, lambda p, u=u: (p[u], structure.senate_action(p[:m]))))
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
        edges = [(u, (u + 1) % n) for u in range(n)]
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
        assert [set(p.blocks) for p in final] == want_final
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
            if kind == NETWORK_BELIEF and n < 2:
                continue
            assert_matches_reference(kind, scenario)
        space = scenario.outcome_space()
        final, _ = fixed_point_partitions(PUBLIC_BELIEF, space, own_signal_partitions(space))
        beliefs = [belief_function(space, p) for p in final]
        for profile in space.profiles:
            assert {b(profile) for b in beliefs} == {pooled_posterior(space, profile)}
        belief = [lambda block: posterior_belief(space, block)] * n
        assert is_common_knowledge(space, final, belief)
        final, _ = fixed_point_partitions(PUBLIC_ACTION, space, own_signal_partitions(space))
        action = [lambda block: optimal_action_set(posterior_belief(space, block))] * n
        assert is_common_knowledge(space, final, action)

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
            posterior_belief(space, p.block_of(realized)) for p in result.partitions
        )
        belief = [lambda block: posterior_belief(space, block)] * scenario.n
        action = [lambda block: optimal_action_set(posterior_belief(space, block))] * scenario.n
        assert result.beliefs_common_knowledge == is_common_knowledge(
            space, result.partitions, belief
        )
        assert result.actions_common_knowledge == is_common_knowledge(
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
        rebuilt = Partition(own[1].blocks)
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


# ---------------------------------------------------------------------------
# golden outputs: the CSVs the frozenset engine printed
# ---------------------------------------------------------------------------

HEADER = (
    "# generator=philox4x64/seedseq/numpy-{}\n"
    "scenario,n,mode,trials,successes,ties,failures,success_rate,stderr,msbe,seed\n"
)
IID8_ROW = (
    '"iid_binary(8, 2/3)",8,{},1000,714,194,92,0.805,0.012528966437819202,'
    "0.12471905041492728,7\n"
)
GOLDEN = {
    ("iid_binary", "8", "public-belief"): IID8_ROW.format("public-belief"),
    ("iid_binary", "8", "public-action"): IID8_ROW.format("public-action"),
    ("iid_binary", "8", "statistic"): IID8_ROW.format("public-statistic"),
    ("iid_binary", "8", "network"): IID8_ROW.format("network-belief"),
    ("geometric_tail", "2", "public-action"): (
        '"geometric_tail(2, K=8)",2,public-action,1000,991,3,6,0.993,'
        "0.002636474919281427,0.0061086504947408665,7\n"
    ),
}


@pytest.mark.parametrize("family,n,protocol", list(GOLDEN), ids=" ".join)
def test_simulate_csv_is_unchanged(family, n, protocol, capsys):
    argv = ["simulate", "--scenario", family, "--n", n, "--protocol", protocol,
            "--trials", "1000", "--seed", "7", "--format", "csv"]
    if family == "iid_binary":
        argv += ["--param", "p=2/3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == HEADER.format(np.__version__) + GOLDEN[(family, n, protocol)]
