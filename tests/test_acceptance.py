"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Small agent counts are checked exactly (rational arithmetic end to end);
asymptotic statements are checked statistically at desk scale with three
binomial standard errors of slack.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from agreelab.bounds import (
    conditional_expectation_interval,
    estimator_moments_enumerated,
    qn_bound,
)
from agreelab.cli import main as cli_main
from agreelab.dynamics import (
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    announced_codes,
    fixed_point_partitions,
)
from agreelab.harness import (
    POOLED,
    chunk_streams,
    exact_pooled_summary,
    run_monte_carlo,
    senate_exact_summary,
)
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    belief_function,
    is_common_knowledge,
    optimal_action_set,
    pooled_posterior,
)
from agreelab.scenarios import (
    geometric_tail,
    iid_binary,
    parity,
    senate,
    uncorrelated_tight,
)
from agreelab.signals import (
    SignalModel,
    belief_from_llr,
    belief_tail_cdf,
    cov_state_llr,
    noise_to_signal_ratio,
    private_belief,
    symmetrized_divergence,
)


def report(number: int, label: str, ok: bool, started: float, budget: float):
    elapsed = time.time() - started
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[ACCEPTANCE {number}] {label}: {verdict} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({label}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def random_ternary_model(seed: int) -> SignalModel:
    rng = np.random.default_rng(seed)
    while True:
        vectors = []
        for _ in range(2):
            raw = [Fraction(int(k)) for k in rng.integers(1, 12, size=3)]
            total = sum(raw)
            vectors.append(tuple(w / total for w in raw))
        if vectors[0] != vectors[1]:
            return SignalModel(alphabet=("a", "b", "c"), mu0=vectors[0], mu1=vectors[1])


def test_criterion_1_agreement_equals_pooled_exactly():
    """Common-knowledge belief fixed points pool the signals, exactly."""
    started = time.time()
    ternary = random_ternary_model(20240601)
    ok = True
    for n in (2, 3, 4):
        for scenario_model in (SignalModel.binary(Fraction(2, 3)), ternary):
            from agreelab.knowledge import outcome_space_iid, own_signal_partitions

            space = outcome_space_iid(scenario_model, n)
            final, _ = fixed_point_partitions(
                PUBLIC_BELIEF, space, own_signal_partitions(space)
            )
            ck = is_common_knowledge(
                final, [announced_codes(PUBLIC_BELIEF, space, p)[0] for p in final]
            )
            fns = [belief_function(space, p) for p in final]
            exact = all(
                {fn(profile) for fn in fns} == {pooled_posterior(space, profile)}
                for profile in space.profiles
            )
            ok = ok and ck and exact
    report(1, "belief agreement pools signals exactly", ok, started, budget=10)


def test_criterion_2_exact_variance_and_action_bounds():
    """D/(n+D) and 4D/(n+D) hold exactly for the pooled law at D = 8."""
    started = time.time()
    model = SignalModel.binary(Fraction(2, 3))
    d = Fraction(8)
    ok = True
    for n in (10, 20, 50, 100, 200):
        summary = exact_pooled_summary(model, n)
        var_bound = d / (n + d)
        err_bound = 4 * d / (n + d)
        ok = ok and summary.msbe <= var_bound
        if err_bound < 1:  # non-vacuous rows only
            ok = ok and summary.not_learned <= err_bound
    report(2, "exact aggregate bounds at D=8", ok, started, budget=5)


def test_criterion_3_uncorrelated_family_meets_its_rate():
    """Flip-family error tracks 1 - p(n) and scales like 3/4 over n."""
    started = time.time()
    trials = 100_000
    ok = True
    for i, n in enumerate((8, 16, 32, 64, 128)):
        scenario = uncorrelated_tight(n)
        summary = run_monte_carlo(scenario, POOLED, trials, seed=8_000 + i)
        target = float(1 - scenario.metadata["q"])
        sigma = math.sqrt(target * (1 - target) / trials)
        ok = ok and abs(summary.failure_rate - target) <= 3 * sigma
        if n >= 32:
            scaled = summary.failure_rate * (n - 1)
            ok = ok and 0.6 <= scaled <= 0.9
    report(3, "flip-family error rate is ~ (3/4)/n", ok, started, budget=60)


def test_criterion_4_estimator_identities():
    """Var(Y-S) = D/(4n), Cov(S,Y) = 1/4, Var(Y) = (1+D/n)/4 by enumeration."""
    started = time.time()
    ok = True
    for p in (Fraction(3, 5), Fraction(2, 3), Fraction(3, 4)):
        model = SignalModel.binary(p)
        d = noise_to_signal_ratio(model)
        for n in range(1, 11):
            m = estimator_moments_enumerated(model, n)
            ok = ok and abs(m.var_y_minus_s - d / (4 * n)) <= 1e-10
            ok = ok and abs(m.cov_s_y - 0.25) <= 1e-10
            ok = ok and abs(m.var_y - 0.25 * (1 + d / n)) <= 1e-10
    report(4, "estimator moment identities", ok, started, budget=5)


def test_criterion_5_supporting_identities():
    """Covariance identity, belief laws, conditional Chebyshev, correlation step."""
    started = time.time()
    ok = True

    # Cov(S, z) equals a quarter of the symmetrized divergence
    models = [
        SignalModel.binary(Fraction(2, 3)),
        SignalModel.binary(Fraction(3, 5)),
        random_ternary_model(5),
        geometric_tail(2, depth=6, ratio=Fraction(7, 10)).marginal_model,
    ]
    for model in models:
        ok = ok and abs(cov_state_llr(model) - symmetrized_divergence(model) / 4) <= 1e-12

    # P(S=1 | B = b) = b, exactly, and the low-belief tail points to state 0
    for model in models:
        groups = {}
        for symbol in model.support:
            groups.setdefault(private_belief(model, symbol), []).append(symbol)
        for belief, symbols in groups.items():
            ones = sum((model.weight(1, s) for s in symbols), Fraction(0))
            total = ones + sum((model.weight(0, s) for s in symbols), Fraction(0))
            ok = ok and ones / total == belief
        for eps in (Fraction(1, 20), Fraction(1, 5), Fraction(2, 5)):
            tail = [s for s in model.support if private_belief(model, s) < eps]
            if not tail:
                continue
            zeros = sum(model.weight(0, s) for s in tail)
            total = zeros + sum(model.weight(1, s) for s in tail)
            ok = ok and zeros / total > 1 - eps

    # conditional Chebyshev interval containment, 1000 randomized variables
    rng = np.random.default_rng(123)
    for _ in range(1000):
        size = int(rng.integers(2, 10))
        values = rng.normal(0, 2, size=size)
        probs = rng.dirichlet(np.ones(size))
        member = rng.integers(0, 2, size=size).astype(bool)
        if not member.any():
            member[0] = True
        p_event = min(float(probs[member].sum()), 1.0)
        mean = float(np.dot(probs, values))
        var = float(np.dot(probs, (values - mean) ** 2))
        conditional = float(np.dot(probs[member], values[member]) / p_event)
        lo, hi = conditional_expectation_interval(mean, var, p_event)
        ok = ok and lo - 1e-12 <= conditional <= hi + 1e-12

    # monotone-correlation step: E[Z g(Z) | X] >= E[g(Z) | X] E[Z | X]
    for _ in range(200):
        n_x = int(rng.integers(1, 4))
        n_z = int(rng.integers(1, 5))
        z_values = rng.normal(0, 2, size=n_z)
        joint = rng.dirichlet(np.ones(n_x * n_z)).reshape(n_x, n_z)
        for ix in range(n_x):
            mass = joint[ix].sum()
            if mass <= 0:
                continue
            cond = joint[ix] / mass
            gz = np.array([belief_from_llr(z) for z in z_values])
            lhs = float(np.dot(cond, z_values * gz))
            rhs = float(np.dot(cond, gz)) * float(np.dot(cond, z_values))
            ok = ok and lhs >= rhs - 1e-12
            support = z_values[cond > 1e-12]
            if support.size > 1 and np.ptp(support) > 1e-9:
                ok = ok and lhs > rhs
    report(5, "supporting identities and inequalities", ok, started, budget=20)


def test_criterion_6_parity_agreement_without_learning():
    """Zero rounds, belief exactly one half, coin-flip success, pooled certainty."""
    started = time.time()
    ok = True
    for n in range(2, 7):
        scenario = parity(n)
        space = scenario.outcome_space()
        final, trace = fixed_point_partitions(
            PUBLIC_BELIEF, space, scenario.initial_partitions(space)
        )
        ok = ok and trace.rounds_to_fixed_point == 0
        fns = [belief_function(space, p) for p in final]
        ok = ok and all(
            {fn(profile) for fn in fns} == {Fraction(1, 2)} for profile in space.profiles
        )
        ok = ok and all(
            pooled_posterior(space, profile) in (0, 1) for profile in space.profiles
        )
        summary = run_monte_carlo(scenario, PUBLIC_BELIEF, 20_000, seed=60 + n)
        ok = ok and summary.ties == summary.trials
        sigma = math.sqrt(0.25 / summary.trials)
        ok = ok and abs(summary.success_rate - 0.5) <= 3 * sigma
    report(6, "parity agrees instantly and learns nothing", ok, started, budget=10)


def test_criterion_7_committee_blocks_learning():
    """Common actions at any scale, error pinned to the committee tail."""
    started = time.time()
    ok = True

    # engine cross-validation on a small committee, every profile, exact
    small = senate(5, senate_size=2, accuracy=Fraction(2, 3))
    space = small.outcome_space()
    final, _ = fixed_point_partitions(
        PUBLIC_ACTION, space, small.initial_partitions(space)
    )
    fns = [belief_function(space, p) for p in final]
    verdicts = small.structure.trial_labels(space)
    for profile, verdict in zip(space.profiles, verdicts.tolist()):
        actions = {optimal_action_set(fn(profile)) for fn in fns}
        ok = ok and len(actions) == 1
        engine = actions.pop()
        committee = ACTION_SETS[verdict]
        if committee != ACTION_BOTH:
            ok = ok and engine == committee
        else:
            tally = sum(profile[2:])
            expected = (
                ACTION_ONE
                if 2 * tally > 3
                else (ACTION_ZERO if 2 * tally < 3 else ACTION_BOTH)
            )
            ok = ok and engine == expected
    ok = ok and is_common_knowledge(
        final, [announced_codes(PUBLIC_ACTION, space, p)[0] for p in final]
    )

    # full-size committees: deference is exact and the error law is flat in n
    acc = Fraction(2, 3)
    oracle_tail = sum(
        math.comb(100, k) * acc**k * (1 - acc) ** (100 - k) for k in range(50)
    )
    failures = []
    for n in (200, 400, 800):
        scenario = senate(n)
        ok = ok and scenario.structure.deference_is_exact()
        summary = senate_exact_summary(scenario)
        failures.append(summary.failure)
        sampled = run_monte_carlo(scenario, PUBLIC_ACTION, 2_000, seed=700 + n)
        ok = ok and sampled.trials == 2_000
    ok = ok and failures[0] == failures[1] == failures[2] == oracle_tail
    report(7, "committee keeps the error constant in n", ok, started, budget=30)


def test_criterion_8_unbounded_beliefs_learn_at_the_tail_rate():
    """Wrong-action rate given S=0 falls with n and respects the tail bound."""
    started = time.time()
    trials = 50_000
    depth, ratio = 12, Fraction(7, 10)
    n_values = (10, 19, 37, 72, 139, 268, 518, 1000)
    ok = True
    rates = []
    for i, n in enumerate(n_values):
        scenario = geometric_tail(n, depth=depth, ratio=ratio)
        sampler = scenario.pooled_sampler()
        wrong = 0
        for rng, size in chunk_streams(8_800 + i, n, trials):
            actions, _x = sampler(rng, np.zeros(size, dtype=np.int64))
            wrong += int(np.count_nonzero(actions != ACTION_SETS.index(ACTION_ZERO)))
        rate = wrong / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1.0 / trials) / trials)
        bound = qn_bound(n, belief_tail_cdf(scenario.marginal_model, 0))
        ok = ok and rate <= bound + 3 * sigma
        rates.append((rate, sigma))
    for (r0, s0), (r1, s1) in zip(rates, rates[1:]):
        ok = ok and r1 <= r0 + 3 * math.sqrt(s0 * s0 + s1 * s1)
    report(8, "unbounded-belief learning respects the tail bound", ok, started, budget=120)


def test_criterion_9_sweep_reruns_are_byte_identical(tmp_path):
    """Identical (config, seed) must reproduce the CSV byte for byte."""
    started = time.time()
    args = (
        "sweep", "--scenario", "iid_binary", "--param", "p=2/3",
        "--n", "10,20,50", "--trials", "5000", "--seed", "424242",
        "--format", "csv",
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    code_a = cli_main([*args, "--out", str(first)])
    code_b = cli_main([*args, "--out", str(second)])
    ok = code_a == 0 and code_b == 0 and first.read_bytes() == second.read_bytes()
    ok = ok and first.read_text().splitlines()[1].startswith("n,trials,")
    report(9, "sweep output is reproducible byte for byte", ok, started, budget=60)
