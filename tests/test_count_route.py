"""Every protocol on i.i.d. signals, decided once per count vector
(``dynamics.decide_counts``), on the senate by its two tallies, and on
parity, flip and two-bit in closed form, against the enumerated engine's
per-profile outcome table (``reference.protocol_outcome_table``, as trials
report it: ``reference.trial_table``).  Grouped by the statistic that each
structure draws (``reference.profile_statistics``), the table holds one
outcome per statistic, and the structure's ``trial_outcomes`` of that
statistic gives its action code and bit-equal X, and each structure's
tallies lie in a binomial acceptance region of its exact law.  A Monte
Carlo run decides only the count vectors it draws, each once
(``IidSignals.trial_outcomes``), and gives what the full table gives; no
registry family builds a space or a partition to sample.
The belief protocols' fixed points are checked, exactly, to be the pooled
posterior on random digraphs too, from own-signal and from the senate's
initial information.  The count vectors themselves
(``reference.count_vectors``) are checked against ``count_law``'s, and the one
exact posterior kernel (``bounds.count_odds``) against ``count_posterior``."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (
    by_statistic,
    count_vectors,
    law_rows,
    profile_statistics,
    table_outcomes,
    trial_law,
    trial_table,
)
from test_engine import HUGE_ACCURACY, UNSORTED_MODEL
from test_scenarios import _FixedDraws, kernel_rows

from agreelab import dynamics, scenarios
from agreelab.bounds import count_law, count_posterior
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PROTOCOL_KINDS,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    Digraph,
    announced_codes,
    decide_counts,
    fixed_point_partitions,
)
from agreelab.harness import CHUNK_TRIALS, MODES, run_monte_carlo
from agreelab.knowledge import OutcomeSpace, Partition, action_code
from agreelab.scenarios import (
    SCENARIO_FAMILIES,
    IidSignals,
    geometric_tail,
    geometric_tail_model,
    iid_binary,
    iid_custom,
    parity,
    senate,
    two_bit,
    uncorrelated_tight,
)
from agreelab.signals import SignalModel


@st.composite
def tie_prone_models(draw):
    """2-4 symbols with small rational weights.  Some draws mirror the two
    states' weights, and some give two symbols one likelihood ratio, so exact
    ties between the states' masses occur along the way."""
    size = draw(st.integers(2, 4))
    weight = st.integers(1, 7)
    raw0 = draw(st.lists(weight, min_size=size, max_size=size))
    shape = draw(st.sampled_from(["free", "mirrored", "repeated ratio"]))
    if shape == "mirrored":
        raw1 = raw0[::-1]
    else:
        raw1 = draw(st.lists(weight, min_size=size, max_size=size))
        if shape == "repeated ratio":
            scale = draw(st.integers(2, 3))
            raw0[-1], raw1[-1] = scale * raw0[0], scale * raw1[0]
    mu0 = tuple(Fraction(r, sum(raw0)) for r in raw0)
    mu1 = tuple(Fraction(r, sum(raw1)) for r in raw1)
    assume(mu0 != mu1)
    alphabet = draw(st.permutations("abcd"))[:size]
    return SignalModel(alphabet=tuple(alphabet), mu0=mu0, mu1=mu1)


COUNT_ROUTE_KINDS = (PUBLIC_BELIEF, PUBLIC_ACTION, PUBLIC_STATISTIC, NETWORK_BELIEF)

#: Under public-statistic at n = 5, a public block of two count vectors splits.
MIRRORED = SignalModel(
    alphabet=("a", "b", "c", "d"),
    mu0=tuple(Fraction(r, 8) for r in (1, 2, 3, 2)),
    mu1=tuple(Fraction(r, 8) for r in (2, 3, 2, 1)),
)

TIED_BY_THE_ERROR_BOUND = SignalModel(
    alphabet=("a", "b", "c", "d"),
    mu0=tuple(Fraction(r, 17) for r in (2, 3, 6, 6)),
    mu1=tuple(Fraction(r, 34) for r in (6, 2, 8, 18)),
)


def assert_route_equals_the_table(scenario):
    """Under each protocol, the enumerated table grouped by statistic is one
    outcome per statistic, and ``trial_outcomes`` of each statistic is it."""
    space = scenario.outcome_space()
    statistics = profile_statistics(scenario, space)
    for kind in COUNT_ROUTE_KINDS:
        drawn, want_codes, want_xs = by_statistic(statistics, *trial_table(scenario, kind, space))
        codes, xs = scenario.structure.trial_outcomes(scenario.n, kind)(drawn)
        assert codes.tolist() == want_codes.tolist(), kind
        assert xs.tobytes() == want_xs.tobytes(), kind


@pytest.mark.parametrize(
    "scenario",
    [
        *(parity(n) for n in range(2, 15)),
        *(uncorrelated_tight(n) for n in range(4, 21, 4)),
        two_bit(4),
        two_bit(8),
    ],
    ids=lambda s: s.name,
)
def test_closed_forms_equal_the_table(scenario):
    """Parity, flip and two-bit's closed forms are the engine's fixed points,
    and the oracle's table finds every agent agreeing on them."""
    assert_route_equals_the_table(scenario)


@pytest.mark.parametrize("kind", COUNT_ROUTE_KINDS)
@pytest.mark.parametrize(
    "scenario", [parity(6), uncorrelated_tight(8), two_bit(4)], ids=lambda s: s.name
)
def test_closed_forms_tally_as_the_enumerated_route(scenario, kind, monkeypatch):
    """A run over two chunks reads the same outcomes off the same draws
    whether the closed form or the engine's table decides them."""
    want = run_monte_carlo(scenario, kind, CHUNK_TRIALS + 1, seed=9).to_csv()
    space = scenario.outcome_space()
    grouped = by_statistic(profile_statistics(scenario, space), *trial_table(scenario, kind, space))
    table = table_outcomes(*grouped)
    monkeypatch.setattr(type(scenario.structure), "trial_outcomes", lambda self, n, kind: table)
    assert run_monte_carlo(scenario, kind, CHUNK_TRIALS + 1, seed=9).to_csv() == want


@settings(max_examples=60, deadline=None)
@given(model=tie_prone_models(), n=st.integers(1, 5))
def test_random_models_equal_the_table(model, n):
    assert_route_equals_the_table(iid_custom(n, model))


@pytest.mark.parametrize(
    "scenario",
    [
        iid_binary(1, Fraction(2, 3)),
        geometric_tail(1),
        geometric_tail(3),
        # Python-int spaces whose log-odds all lie within the float error bound.
        iid_binary(2, HUGE_ACCURACY),
        iid_binary(3, HUGE_ACCURACY),
        # Symbols a and d share a likelihood ratio, and the float log-odds of
        # an exact tie come out nonzero: only the error bound catches it.
        iid_custom(2, TIED_BY_THE_ERROR_BOUND),
        iid_custom(5, MIRRORED),
    ],
    ids=lambda s: s.name,
)
def test_named_scenarios_equal_the_table(scenario):
    assert_route_equals_the_table(scenario)


@pytest.mark.parametrize(
    "scenario",
    [
        senate(3, 2, Fraction(3, 4)),
        senate(5, 2),
        senate(5, 3),
        senate(6, 4, Fraction(3, 5)),
        senate(8, 5),
        iid_custom(4, UNSORTED_MODEL),
    ],
    ids=lambda s: f"{s.name}-{getattr(s.structure, 'senate_size', 'support')}",
)
def test_tallies_and_unsorted_supports_equal_the_table(scenario):
    """The senate's trials are its committee's verdict, read off its two
    tallies; an unsorted support is counted in its own order."""
    assert_route_equals_the_table(scenario)


@st.composite
def refining_scenarios(draw):
    """Scenarios at one n whose initial partitions each refine the agent's
    own signal: own-signal information on a tie-prone model at n = 2..4, or
    the senate at n = 2..6 with every committee size 1..n-1 (weak and split
    committees included) at one random accuracy."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 4))
        return n, [iid_custom(n, draw(tie_prone_models()))]
    n = draw(st.integers(2, 6))
    den = draw(st.integers(3, 9))
    accuracy = Fraction(draw(st.integers(den // 2 + 1, den - 1)), den)
    return n, [senate(n, senate_size=m, accuracy=accuracy) for m in range(1, n)]


@settings(max_examples=60, deadline=None)
@given(drawn=refining_scenarios(), data=st.data())
def test_belief_protocols_end_at_the_pooled_posterior(drawn, data):
    """The consensus argument of ``decide_counts``, on the enumerated
    engine: public-belief, public-statistic, and network-belief on a random
    strongly connected digraph, leave every agent the pooled posterior, as
    Fractions, whenever each agent's partition refines its own signal."""
    n, scenarios = drawn
    pairs = [(u, w) for u in range(n) for w in range(n) if u != w]
    edges = data.draw(st.lists(st.sampled_from(pairs), min_size=n, unique=True), label="edges")
    network = Digraph(n, tuple(edges))
    assume(network.is_strongly_connected())
    for scenario in scenarios:
        space = scenario.outcome_space()
        w0, w1 = space.w0.tolist(), space.w1.tolist()
        pooled = [Fraction(b, a + b) for a, b in zip(w0, w1)]
        initial = scenario.initial_partitions(space)
        for kind in (PUBLIC_BELIEF, PUBLIC_STATISTIC, NETWORK_BELIEF):
            final, _ = fixed_point_partitions(kind, space, initial, network=network)
            for partition in final:
                codes, values = announced_codes(PUBLIC_BELIEF, space, partition)
                assert [values[c] for c in codes.tolist()] == pooled, (scenario.name, kind)


@settings(max_examples=40, deadline=None)
@given(model=tie_prone_models(), n=st.integers(1, 4))
def test_count_rows_find_each_profiles_counts(model, n):
    """Every profile's counts find a row of the table of their own: over all
    profiles, each of ``count_law``'s count vectors is decided once, and
    each profile gets its own vector's outcome."""
    rows = [counts for counts, _, _ in law_rows(count_law(model, n)[1])]
    space = OutcomeSpace.iid(model, n)
    counts = profile_statistics(iid_custom(n, model), space)
    assert counts.tolist() == [[p.count(s) for s in model.support] for p in space.profiles]
    with pytest.MonkeyPatch.context() as patch:
        decided = []
        decide = scenarios.decide_counts

        def counted(model, kind, counts):
            decided.extend(map(tuple, counts.tolist()))
            return decide(model, kind, counts)

        patch.setattr(scenarios, "decide_counts", counted)
        codes, xs = IidSignals(model).trial_outcomes(n, PUBLIC_ACTION)(counts)
    assert sorted(decided) == sorted(rows)
    want_codes, want_xs = decide_counts(model, PUBLIC_ACTION, counts)
    assert codes.tobytes() == want_codes.tobytes()
    assert xs.tobytes() == want_xs.tobytes()


@settings(max_examples=60, deadline=None)
@given(model=tie_prone_models(), n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lazy_outcomes_equal_the_full_table(model, n, seed):
    """Batch after batch, the outcome that decides each drawn count vector
    once gives the full table's codes and bit-equal X at the batch's rows."""
    structure = IidSignals(model)
    vectors = count_vectors(n, len(model.support))
    rng = np.random.default_rng(seed)
    batches = [rng.integers(len(vectors), size=size) for size in (1, 40, 40)]
    for kind in COUNT_ROUTE_KINDS:
        codes, xs = decide_counts(model, kind, vectors)
        outcome = structure.trial_outcomes(n, kind)
        for at in batches:
            got_codes, got_xs = outcome(vectors[at])
            assert got_codes.tobytes() == codes[at].tobytes(), kind
            assert got_xs.tobytes() == xs[at].tobytes(), kind


@pytest.mark.parametrize("kind", COUNT_ROUTE_KINDS)
def test_a_run_decides_each_count_vector_once(kind, monkeypatch):
    """Over three chunks, no count vector is decided twice, and later chunks
    decide the vectors that earlier ones did not draw."""
    decided, calls = [], []
    decide = scenarios.decide_counts

    def counted(model, kind, counts):
        calls.append(len(counts))
        decided.extend(map(tuple, counts.tolist()))
        return decide(model, kind, counts)

    monkeypatch.setattr(scenarios, "decide_counts", counted)
    summary = run_monte_carlo(geometric_tail(3), kind, 2 * CHUNK_TRIALS + 1, seed=4)
    assert summary.trials == 2 * CHUNK_TRIALS + 1
    assert len(calls) > 1
    assert len(decided) == len(set(decided)) <= len(count_vectors(3, 16))


@pytest.mark.parametrize(
    "model",
    [SignalModel.binary(Fraction(2, 3)), geometric_tail_model(3, Fraction(7, 10)), MIRRORED],
    ids=["binary", "geometric_tail", "mirrored"],
)
def test_rows_of_mixed_agent_counts_decide_as_alone(model):
    """A row's agent count is its own sum: rows of one to four agents,
    decided in one call, give each row's one-row call, bit for bit."""
    k = len(model.support)
    rows = np.concatenate([count_vectors(n, k) for n in (3, 1, 4, 2)])
    for kind in COUNT_ROUTE_KINDS:
        codes, xs = decide_counts(model, kind, rows)
        alone = [decide_counts(model, kind, row[None]) for row in rows]
        assert codes.tolist() == [int(c[0]) for c, _ in alone], kind
        assert xs.tobytes() == np.concatenate([x for _, x in alone]).tobytes(), kind


@pytest.mark.parametrize("kind", COUNT_ROUTE_KINDS)
def test_a_row_of_no_agents_is_refused(kind):
    with pytest.raises(ValueError, match="at least one agent"):
        decide_counts(MIRRORED, kind, np.array([[1, 0, 2, 0], [0, 0, 0, 0]]))


@pytest.mark.parametrize("kind", PROTOCOL_KINDS)
@pytest.mark.parametrize(
    "rows, message",
    [
        ([[-1, 3]], "non-negative counts"),
        ([[1.5, 0.5]], "whole numbers"),
        ([[1, 1, 1]], "one per support symbol"),
    ],
    ids=["negative", "fractional", "wrong-length"],
)
def test_rows_that_are_not_counts_are_refused(kind, rows, message):
    """Each row sums to two agents, so only the count check can refuse it,
    and public-action, which reads no odds, must refuse it too."""
    with pytest.raises(ValueError, match=message):
        decide_counts(SignalModel.binary(Fraction(2, 3)), kind, np.array(rows))


@pytest.mark.parametrize("k", range(2, 17))
def test_count_vectors_are_count_laws_counts(k):
    model = SignalModel(
        alphabet=tuple(range(k)),
        mu0=(Fraction(1, k),) * k,
        mu1=tuple(Fraction(2 * (i + 1), k * (k + 1)) for i in range(k)),
    )
    for n in range(1, 7):
        counts = count_vectors(n, k)
        assert counts.dtype == np.int64
        blocks = [block for block, _, _ in count_law(model, n)[1]]
        assert np.array_equal(counts, np.concatenate(blocks))


#: One small scenario of each registry family.
SMALL_SCENARIOS = {
    "parity": parity(4),
    "iid_binary": iid_binary(6, Fraction(2, 3)),
    "iid_custom": iid_custom(5, MIRRORED),
    "uncorrelated_tight": uncorrelated_tight(8),
    "two_bit": two_bit(4),
    "senate": senate(5, 2),
    "geometric_tail": geometric_tail(3),
}


@pytest.mark.parametrize("mode", MODES)
def test_monte_carlo_builds_no_space_and_no_partition(mode, monkeypatch):
    """Every registry family samples every mode from its drawn rows alone."""

    def refused(*args):
        raise AssertionError("the Monte Carlo path built a space or a partition")

    monkeypatch.setattr(OutcomeSpace, "__init__", refused)
    monkeypatch.setattr(Partition, "__init__", refused)
    assert SMALL_SCENARIOS.keys() == SCENARIO_FAMILIES.keys()
    for scenario in SMALL_SCENARIOS.values():
        summary = run_monte_carlo(scenario, mode, 500, seed=4)
        assert summary.successes + summary.ties + summary.failures == 500, scenario.name


@pytest.mark.parametrize("kind", COUNT_ROUTE_KINDS)
@pytest.mark.parametrize(
    "scenario, closed_form",
    [
        (iid_binary(6, Fraction(2, 3)), False),
        (geometric_tail(2), False),
        (senate(5, 2), False),
        (two_bit(4), True),
    ],
    ids=lambda value: getattr(value, "name", None),
)
def test_only_iid_signals_take_the_count_route(scenario, closed_form, kind, monkeypatch):
    """The senate's outcome is a function of two counts, its committee's and
    everyone's; signals that are not conditionally independent, as two-bit's,
    are decided in closed form instead.  Neither route builds a space."""
    built, decided = [], []
    build, decide = OutcomeSpace.__init__, dynamics.decide_counts

    def counted(self, *args):
        built.append(self)
        build(self, *args)

    def deciding(*args):
        decided.append(args)
        return decide(*args)

    monkeypatch.setattr(OutcomeSpace, "__init__", counted)
    monkeypatch.setattr(dynamics, "decide_counts", deciding)
    monkeypatch.setattr(scenarios, "decide_counts", deciding)
    run_monte_carlo(scenario, kind, 200, seed=4)
    assert built == []
    assert bool(decided) != closed_form


@settings(max_examples=60, deadline=None)
@given(model=tie_prone_models(), data=st.data())
def test_the_kernel_decides_as_count_posterior(model, data):
    """At counts up to 10^4, the kernel's codes and X, through
    ``decide_counts`` and through the pooled sampler's tie rechecks, are
    the sign and the ``float`` of ``count_posterior``.  A palindromic count
    vector is a tie on a mirrored model, so such draws reach the rechecks."""
    k = len(model.support)
    counts = data.draw(st.lists(st.integers(0, 10**4), min_size=k, max_size=k), label="counts")
    if data.draw(st.booleans(), label="palindrome"):
        counts = [max(a, b) for a, b in zip(counts, counts[::-1])]
    if not any(counts):
        with pytest.raises(ValueError, match="at least one agent"):
            decide_counts(model, PUBLIC_BELIEF, np.array([counts]))
        return
    rows = sorted(set(itertools.permutations(counts)))
    exact = [count_posterior(model, row) for row in rows]
    codes, xs = decide_counts(model, PUBLIC_BELIEF, np.array(rows))
    assert codes.tolist() == [action_code(x) for x in exact]
    assert xs.tolist() == [float(x) for x in exact]
    with pytest.MonkeyPatch.context() as patch:
        rechecked = kernel_rows(patch)
        draw = IidSignals(model).pooled_sampler(sum(counts))
        _, actions, beliefs = draw(_FixedDraws(rows), len(rows))
    assert actions.tolist() == [action_code(x) for x in exact]
    assert {row for row, x in zip(rows, exact) if x == Fraction(1, 2)} <= set(rechecked)
    for row, x, belief in zip(rows, exact, beliefs.tolist()):
        if row in rechecked:
            assert belief == float(x)


def acceptance_region(trials: int, p: Fraction, alpha: float) -> tuple[int, int]:
    """The two-sided acceptance region ``[lo, hi]`` of a binomial count of
    ``trials`` at probability ``p``, at level ``alpha``: each tail outside it
    has mass at most ``alpha / 2``."""
    if p in (0, 1):
        return (0, 0) if p == 0 else (trials, trials)
    log_p, log_q = math.log(p), math.log1p(-float(p))
    pmf = [
        math.exp(math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
                 + k * log_p + (trials - k) * log_q)
        for k in range(trials + 1)
    ]
    lo, below = 0, pmf[0]
    while below <= alpha / 2:
        lo += 1
        below += pmf[lo]
    hi, above = trials, pmf[trials]
    while above <= alpha / 2:
        hi -= 1
        above += pmf[hi]
    return lo, hi


def test_the_acceptance_region_has_its_level():
    lo, hi = acceptance_region(100, Fraction(1, 2), 0.05)
    assert (lo, hi) == (40, 60)  # P(X <= 39) = 0.0176, P(X <= 40) = 0.0284
    assert acceptance_region(10, Fraction(0), 0.05) == (0, 0)
    assert acceptance_region(10, Fraction(1), 0.05) == (10, 10)


#: Monte Carlo trials per structure and protocol, and the level of each of
#: the four counts checked per run.
LAW_TRIALS, LAW_ALPHA = 4000, 1e-5


@pytest.mark.parametrize("kind", COUNT_ROUTE_KINDS)
@pytest.mark.parametrize(
    "scenario",
    [
        iid_binary(6, Fraction(2, 3)),
        geometric_tail(2),
        iid_custom(5, MIRRORED),
        parity(4),
        uncorrelated_tight(8),
        two_bit(4),
        senate(5, 2),
    ],
    ids=lambda s: s.name,
)
def test_tallies_lie_in_the_acceptance_region_of_the_exact_law(scenario, kind):
    """Successes, ties, failures and the tie-resolved hits of a run each lie
    in the two-sided binomial acceptance region of the enumerated engine's
    exact law, as trials report it."""
    space = scenario.outcome_space()
    success, tie, failure = trial_law(space, trial_table(scenario, kind, space)[0])
    summary = run_monte_carlo(scenario, kind, LAW_TRIALS, seed=12)
    hits = round(summary.success_rate * LAW_TRIALS)
    for name, count, p in (
        ("successes", summary.successes, success),
        ("ties", summary.ties, tie),
        ("failures", summary.failures, failure),
        ("resolved hits", hits, success + tie / 2),
    ):
        lo, hi = acceptance_region(LAW_TRIALS, p, LAW_ALPHA)
        assert lo <= count <= hi, (name, count, float(p))
