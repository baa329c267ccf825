"""Monte Carlo engine, exact evaluations, n-sweeps and verification reports.

Reproducibility contract: trials run in chunks of ``CHUNK_TRIALS``, and
chunk c of a run with n agents draws from its own counter-based stream,
keyed by (seed, n, c) through numpy's SeedSequence/Philox machinery.  A
row's numbers depend only on its content (seed, n, trials), not on its
position in a sweep or on execution order, and identical (config, seed)
pairs produce byte-identical output files.  Each chunk is drawn with a few
vectorised calls and tallied in numpy, so memory is bounded by the chunk
size, not by the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .bounds import (
    BoundReport,
    ExactSummary,
    belief_error_terms,
    certified_msbe,
    estimator_moments_enumerated,
    exact_pooled_summary,
    learning_bounds,
    likelihood_classes,
    pooled_action_law,
    qn_bounds,
)
from .dynamics import (
    PROTOCOL_KINDS,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    announced_codes,
    fixed_point_partitions,
)
from .errors import BoundedBeliefsError, NonInformativeModelError
from .knowledge import (
    TIE,
    action_codes,
    block_sums,
    check_pair_budget,
    is_common_knowledge,
    reduced_ratios,
)
from .scenarios import IidSignals, Scenario, SenateStaged, build_scenario, geometric_tail_model
from .signals import SignalModel, belief_tail_cdf, noise_to_signal_ratio

#: Trials per stream; a run of T trials draws ceil(T / CHUNK_TRIALS) chunks.
CHUNK_TRIALS = 2**14

#: Names the draws: chunk streams, and one statistic per structure for every mode.
RNG_VERSION = f"philox4x64/seedseq/seed-n-chunk{CHUNK_TRIALS}/statistic/numpy-{np.__version__}"

POOLED = "pooled"
MODES = (POOLED,) + PROTOCOL_KINDS


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator, split by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.Philox(seed=ss))


def chunk_streams(seed: int, n: int, trials: int):
    """``(generator, size)`` per chunk of ``trials`` at agent count ``n``;
    chunk c draws from ``trial_rng(seed, n, c)``."""
    for chunk, start in enumerate(range(0, trials, CHUNK_TRIALS)):
        yield trial_rng(seed, n, chunk), min(CHUNK_TRIALS, trials - start)


def csv_text(comment: str, header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV of every CLI report: a ``# comment`` line, the header, one line
    per row.  ``None`` is an empty cell, a float prints as its ``repr``, and
    a cell holding a comma, a quote or a newline is quoted (RFC 4180)."""
    import csv  # only when a CSV is written, so importing the CLI stays cheap
    import io

    out = io.StringIO()
    out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@dataclass
class TrialSummary:
    """Tally of one Monte Carlo run.

    ``successes`` counts trials whose reported action set was exactly the
    true state's singleton, ``ties`` the undecided {0,1} outcomes,
    ``failures`` the wrong singletons.  ``success_rate`` resolves ties with
    a fair coin from the trial's chunk stream, drawn for every trial of the
    chunk after its draws, which is the operational
    "action equals the state" rate; ``msbe`` is the trial mean of
    (X - S)^2 where X is the run's belief summary (the common belief for
    belief protocols and the pooled shortcut, the mean agent belief for
    action protocols).  The senate reports its committee's verdict, and
    under public-action the committee's pooled belief as X at any n, so that
    ``msbe`` estimates ``senate_exact_summary``'s.
    """

    scenario: str
    n: int
    mode: str
    trials: int
    successes: int
    ties: int
    failures: int
    success_rate: float
    stderr: float
    msbe: float
    seed: int
    rng: str = RNG_VERSION

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials

    def to_csv(self) -> str:
        return csv_text(
            f"generator={self.rng}", SUMMARY_COLUMNS, [attrgetter(*SUMMARY_COLUMNS)(self)]
        )


#: A summary's CSV columns: every field but ``rng``, which the comment line names.
SUMMARY_COLUMNS = tuple(f.name for f in fields(TrialSummary) if f.name != "rng")


def run_monte_carlo(scenario: Scenario, mode: str, trials: int, seed: int) -> TrialSummary:
    """Sample (state, signals) from the prior and tally fixed-point actions.

    ``mode`` is either ``pooled`` (the full-information posterior stands in
    for the agreement outcome, which belief-announcement dynamics provably
    reach for conditionally independent signals) or a protocol kind, which
    the structure's ``trial_outcomes`` decides from its drawn statistic with
    no space built: by count vector on i.i.d. signals, each distinct one
    once per run (the senate by its two tallies), and in closed form on
    parity, flip and two-bit.  The pair budget gates every protocol request
    but the senate's public-action, whose fixed point is analytic at any n.
    Each branch is one draw of (states, action codes, X), in chunks keyed by
    (seed, n, chunk), so the run is deterministic given the seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choices: {MODES}")

    structure = scenario.structure
    if mode == POOLED:
        draw = scenario.pooled_sampler()
    else:
        if mode != PUBLIC_ACTION or not isinstance(structure, SenateStaged):
            check_pair_budget(structure.pair_count(scenario.n), scenario.name)
        draw = scenario.profile_sampler(structure.trial_outcomes(scenario.n, mode))

    successes = ties = resolved_hits = 0
    msbe_total = 0.0
    for rng, size in chunk_streams(seed, scenario.n, trials):
        states, actions, x = draw(rng, size)
        coins = rng.integers(0, 2, size=size)
        right = actions == states
        tied = actions == TIE
        successes += int(np.count_nonzero(right))
        ties += int(np.count_nonzero(tied))
        resolved_hits += int(np.count_nonzero(right | (tied & (coins == states))))
        msbe_total += float(np.sum((x - states) ** 2))
    rate = resolved_hits / trials
    return TrialSummary(
        scenario=scenario.name,
        n=scenario.n,
        mode=mode,
        trials=trials,
        successes=successes,
        ties=ties,
        failures=trials - successes - ties,
        success_rate=rate,
        stderr=math.sqrt(rate * (1.0 - rate) / trials),
        msbe=msbe_total / trials,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# exact (sampling-free) evaluations; the count-vector laws live in bounds
# ---------------------------------------------------------------------------


def senate_exact_summary(scenario: Scenario) -> ExactSummary:
    """Exact law of the committee's fixed-point action, any agent count.

    The committee's action is the pooled action of its members' i.i.d. bits,
    and public-action reports the committee's pooled belief as X, so the
    law is the pooled law of ``senate_size`` signals.
    """
    structure = scenario.structure
    if not isinstance(structure, SenateStaged):
        raise TypeError("scenario is not a staged committee scenario")
    law = exact_pooled_summary(structure.model, structure.senate_size)
    structure.check_deference((law.success, law.tie, law.failure))
    return law


def binary_noise_to_signal_exact(accuracy) -> Fraction:
    """Closed-form noise-to-signal ratio 4p(1-p)/(2p-1)^2 of a symmetric
    binary model, exact."""
    p = Fraction(accuracy)
    return 4 * p * (1 - p) / (2 * p - 1) ** 2


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class SweepRow:
    n: int
    summary: TrialSummary
    bounds: BoundReport | None
    qn_bound: float | None


@dataclass
class SweepTable:
    family: str
    mode: str
    trials: int
    seed: int
    rng: str = RNG_VERSION
    rows: list[SweepRow] = field(default_factory=list)

    def to_csv(self) -> str:
        """One line per row: n, the summary's tallies, D, the two bounds of
        D, qn and the seed; a row without a model leaves D to qn blank."""
        tallies = SUMMARY_COLUMNS[3:10]
        read_tallies = attrgetter(*tallies)
        rows = []
        for row in self.rows:
            s, b = row.summary, row.bounds
            bounds = (b.d, b.var_bound, b.action_bound) if b else (None, None, None)
            rows.append((row.n, *read_tallies(s), *bounds, row.qn_bound, s.seed))
        return csv_text(
            f"generator={self.rng} family={self.family} mode={self.mode} seed={self.seed}",
            ("n", *tallies, "D", "var_bound", "action_bound", "qn_bound", "seed"),
            rows,
        )


def sweep_n(
    family: str,
    n_values: Sequence[int],
    trials: int,
    seed: int,
    mode: str = POOLED,
    params: dict | None = None,
    eps_grid: Sequence[float] | None = None,
) -> SweepTable:
    """One Monte Carlo row per agent count, with bound columns attached.

    Each row draws from the streams of its own agent count, so a row does
    not depend on the other n values.  Before any trial runs, D and qn are
    evaluated once per distinct marginal model (one ``qn_bounds`` call over
    its n values); qn is left blank where beliefs have no lower tail.
    """
    scenarios = [build_scenario(family, n, **(params or {})) for n in sorted(n_values)]
    rows_of: dict[SignalModel | None, list[int]] = {}  # rows without a model stay blank
    for i, scenario in enumerate(scenarios):
        rows_of.setdefault(scenario.marginal_model, []).append(i)
    rows_of.pop(None, None)
    columns = [(None, None)] * len(scenarios)
    for model, rows in rows_of.items():
        ns = [scenarios[i].n for i in rows]
        try:
            d = noise_to_signal_ratio(model)
        except NonInformativeModelError:
            d = None
        try:
            qns = qn_bounds(ns, belief_tail_cdf(model, 0), eps_grid=eps_grid)
        except BoundedBeliefsError:
            qns = [None] * len(ns)
        for i, n, qn in zip(rows, ns, qns):
            columns[i] = (None if d is None else learning_bounds(n, d), qn)
    table = SweepTable(family=family, mode=mode, trials=trials, seed=seed)
    for scenario, (bounds, qn) in zip(scenarios, columns):
        summary = run_monte_carlo(scenario, mode, trials, seed)
        table.rows.append(SweepRow(n=scenario.n, summary=summary, bounds=bounds, qn_bound=qn))
    return table


# ---------------------------------------------------------------------------
# verification report
# ---------------------------------------------------------------------------

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"


@dataclass
class Check:
    """One named verification check carrying its margin, not a bare boolean."""

    name: str
    status: str
    observed: float
    bound: float
    tolerance: float
    margin: float
    detail: str = ""


@dataclass
class VerificationReport:
    rng: str = RNG_VERSION
    checks: list[Check] = field(default_factory=list)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if c.status == FAIL]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                f"[{c.status.upper():7s}] {c.name}: observed={c.observed:.6g} "
                f"bound={c.bound:.6g} margin={c.margin:.3g}"
                + (f" ({c.detail})" if c.detail else "")
            )
        lines.append(
            f"{len(self.checks)} checks: "
            f"{sum(c.status == PASS for c in self.checks)} pass, "
            f"{len(self.failures)} fail, "
            f"{sum(c.status == VACUOUS for c in self.checks)} vacuous"
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        columns = [f.name for f in fields(Check)]
        return csv_text(f"generator={self.rng}", columns, map(attrgetter(*columns), self.checks))


def _bounded_check(name, observed, bound, tolerance=0.0, detail="", vacuous=False):
    observed = float(observed)
    bound = float(bound)
    margin = bound + tolerance - observed
    status = VACUOUS if vacuous else (PASS if margin >= 0 else FAIL)
    return Check(
        name=name,
        status=status,
        observed=observed,
        bound=bound,
        tolerance=tolerance,
        margin=margin,
        detail=detail,
    )


def agreement_identity_checks(scenarios: Sequence[Scenario]) -> list[Check]:
    """Common-knowledge beliefs must equal the pooled posterior, exactly.

    Runs the public-belief protocol on each scenario's exact space and
    counts profiles where the fixed-point common belief differs from the
    all-signals posterior, or where the fixed point fails the
    common-knowledge predicate.  Applies to conditionally i.i.d. scenarios.
    """
    checks = []
    for scenario in scenarios:
        space = scenario.outcome_space()
        partitions = scenario.initial_partitions(space)
        final, _ = fixed_point_partitions(PUBLIC_BELIEF, space, partitions)
        distinct = {id(p): p for p in final}.values()
        # Some agent's block belief differs from the pooled one, as reduced pairs.
        pooled = reduced_ratios(space.w1, space.w0 + space.w1)
        wrong = np.zeros(len(space.symbols), dtype=bool)
        for p in distinct:
            zeros, ones = block_sums(space, p, space.w0, space.w1)
            for per_block, per_profile in zip(reduced_ratios(ones, zeros + ones), pooled):
                wrong |= per_block[p.labels] != per_profile
        beliefs = (announced_codes(PUBLIC_BELIEF, space, p)[0] for p in distinct)
        ck = is_common_knowledge(final, beliefs)
        checks.append(
            _bounded_check(
                name=f"belief-agreement-pools-signals[{scenario.name}]",
                observed=int(np.count_nonzero(wrong)) + (0 if ck else 1),
                bound=0.0,
                detail=f"{len(space.symbols)} profiles, common knowledge={ck}",
            )
        )
    return checks


def pooled_bound_rows(model: SignalModel, n_values: Iterable[int]) -> list[tuple]:
    """``(n, not_learned, msbe)`` of the pooled action for each n, the rows
    :func:`aggregate_bound_checks` reads: the exact not-learned mass of
    :func:`~agreelab.bounds.pooled_action_law` and the belief error as
    :func:`~agreelab.bounds.certified_msbe`, ``float`` of
    :func:`exact_pooled_summary`'s msbe without that Fraction."""
    rows = []
    for n in n_values:
        denominator, classes, _firsts = likelihood_classes(model, n)
        _success, tie, failure = pooled_action_law(denominator, classes.items())
        rows.append((n, tie + failure, certified_msbe(denominator, belief_error_terms(classes))))
    return rows


def aggregate_bound_checks(label: str, d, rows: Sequence[tuple]) -> list[Check]:
    """Exact wrong-action and belief-variance bounds for a given D.

    Each row is ``(n, not_learned, msbe)``, as :func:`pooled_bound_rows`
    gives them or read off an :class:`ExactSummary`; both are compared as
    floats.  ``d`` may be a Fraction for end-to-end exact comparisons.  Rows
    whose action bound is non-positive are marked vacuous, never failed.
    """
    checks = []
    for n, not_learned, msbe in rows:
        err_bound = 4 * Fraction(d) / (n + Fraction(d))
        checks.append(
            _bounded_check(
                name=f"wrong-action-bound[{label}, n={n}]",
                observed=not_learned,
                bound=err_bound,
                vacuous=err_bound >= 1,
                detail="exact action-error mass vs 4D/(n+D)",
            )
        )
        var_bound = Fraction(d) / (n + Fraction(d))
        checks.append(
            _bounded_check(
                name=f"belief-variance-bound[{label}, n={n}]",
                observed=msbe,
                bound=var_bound,
                detail="exact E[(X-S)^2] vs D/(n+D)",
            )
        )
    return checks


def estimator_identity_checks(
    labelled_models: Sequence[tuple[str, SignalModel]],
    n_values: Sequence[int],
) -> list[Check]:
    """Var(Y-S) = D/(4n), Cov(S,Y) = 1/4, Var(Y) = (1+D/n)/4 by enumeration."""
    checks, tolerance = [], 1e-10  # the moments' float deviation allowed
    for label, model in labelled_models:
        d = noise_to_signal_ratio(model)
        dev_var = dev_cov = dev_vary = 0.0
        for n in n_values:
            moments = estimator_moments_enumerated(model, n)
            dev_var = max(dev_var, abs(moments.var_y_minus_s - d / (4 * n)))
            dev_cov = max(dev_cov, abs(moments.cov_s_y - 0.25))
            dev_vary = max(dev_vary, abs(moments.var_y - 0.25 * (1 + d / n)))
        checks.append(
            _bounded_check(
                f"estimator-deviation-variance[{label}]", dev_var, 0.0, tolerance,
                detail=f"max |Var(Y-S) - D/4n| over n={list(n_values)}",
            )
        )
        checks.append(
            _bounded_check(
                f"estimator-state-covariance[{label}]", dev_cov, 0.0, tolerance,
                detail="max |Cov(S,Y) - 1/4|",
            )
        )
        checks.append(
            _bounded_check(
                f"estimator-variance[{label}]", dev_vary, 0.0, tolerance,
                detail="max |Var(Y) - (1+D/n)/4|",
            )
        )
    return checks


def tail_bound_checks(
    depth: int,
    ratio,
    n_values: Sequence[int],
    trials: int,
    seed: int,
) -> list[Check]:
    """Empirical wrong-action rate given S=0 against the lower-tail bound.

    The model, its tail cdf and the bounds (one ``qn_bounds`` call) are built
    once; each n's :class:`Scenario` wraps the one structure to draw trials,
    conditioned on state 0, from the (seed, n, chunk) streams.  The rate must
    stay below the bound plus three binomial standard errors, and must not
    increase with n beyond the same allowance.
    """
    structure = IidSignals(geometric_tail_model(depth, ratio))
    bounds = qn_bounds(n_values, belief_tail_cdf(structure.model, 0))
    checks, rates = [], []
    for n, bound in zip(n_values, bounds):
        draw = Scenario(f"geometric_tail({n}, K={depth})", n, structure).pooled_sampler()
        wrong = 0
        for rng, size in chunk_streams(seed, n, trials):
            _states, actions, _x = draw(rng, size, force_state=0)
            wrong += int(np.count_nonzero(actions != 0))
        rate = wrong / trials
        sigma = math.sqrt(max(rate * (1 - rate), 1.0 / trials) / trials)
        rates.append((n, rate, sigma))
        checks.append(
            _bounded_check(
                f"tail-learning-bound[n={n}]", rate, bound, tolerance=3 * sigma,
                detail=f"empirical P(action != 0 | S=0), {trials} trials",
            )
        )
    worst_rise = 0.0
    for (n0, r0, s0), (n1, r1, s1) in zip(rates, rates[1:]):
        allowance = 3 * math.sqrt(s0 * s0 + s1 * s1)
        worst_rise = max(worst_rise, (r1 - r0) - allowance)
    checks.append(
        _bounded_check(
            "tail-learning-trend",
            worst_rise,
            0.0,
            detail="wrong-action rate non-increasing in n within 3 sigma",
        )
    )
    return checks


def example_invariant_checks() -> list[Check]:
    """Structural invariants of the example scenarios, mostly exact."""
    from .dynamics import run_protocol
    from .scenarios import parity, senate, uncorrelated_tight

    checks = []

    # parity: no refinement, common belief one half, pooled degenerate
    scenario = parity(3)
    space = scenario.outcome_space()
    result = run_protocol(
        PUBLIC_BELIEF, space, scenario.initial_partitions(space), space.profile(0)
    )
    pooled_degenerate = not np.any((space.w0 != 0) & (space.w1 != 0))
    parity_bad = (
        result.trace.rounds_to_fixed_point
        + (0 if result.common_belief == Fraction(1, 2) else 1)
        + (0 if pooled_degenerate else 1)
    )
    checks.append(
        _bounded_check(
            "parity-agreement-without-learning", parity_bad, 0.0,
            detail="0 refinement rounds, belief exactly 1/2, pooled degenerate",
        )
    )

    # flip family: exact decode law matches the announced accuracy
    scenario = uncorrelated_tight(8)
    space = scenario.outcome_space()
    q = scenario.metadata["q"]
    a = action_codes(space.margin)
    success = Fraction(int(space.w0[a == 0].sum()) + int(space.w1[a == 1].sum()), space.den)
    checks.append(
        _bounded_check(
            "flip-decode-law", abs(float(success - q)), 0.0, 1e-12,
            detail="exact pooled success probability equals the proxy accuracy",
        )
    )

    # committee: deference holds and the verdict's law is the binomial tail
    # of its m votes, positive whatever n; no belief error is built
    committee = senate(200).structure
    law = committee.action_law()
    committee.check_deference(law)
    m, p = committee.senate_size, committee.accuracy
    a, b, d = p.numerator, p.denominator - p.numerator, p.denominator**m
    votes = [math.comb(m, j) * a**j * b ** (m - j) for j in range(m + 1)]  # j votes right, over d
    tail = (sum(votes[m // 2 + 1 :]), votes[m // 2] * (m % 2 == 0), sum(votes[: (m + 1) // 2]))
    off = sum(abs(float(x - Fraction(t, d))) for x, t in zip(law, tail)) + (0 if law[2] > 0 else 1)
    checks.append(
        _bounded_check(
            "committee-law-is-binomial-tail", off, 0.0,
            detail=f"exact law of {m} votes at {p} equals the binomial tails; failure > 0",
        )
    )
    return checks


def default_verification_suite(
    seed: int = 20240601, trials: int = 20_000
) -> VerificationReport:
    """The desk-scale suite behind the ``verify`` command."""
    from .scenarios import iid_binary

    checks: list[Check] = []
    checks += agreement_identity_checks(
        [iid_binary(2, Fraction(2, 3)), iid_binary(3, Fraction(2, 3))]
    )
    acc = Fraction(2, 3)
    d_exact = binary_noise_to_signal_exact(acc)
    model = SignalModel.binary(acc)
    rows = pooled_bound_rows(model, (10, 20, 50, 100, 200))
    checks += aggregate_bound_checks("iid_binary(2/3)", d_exact, rows)
    checks += estimator_identity_checks(
        [("binary(2/3)", model), ("binary(0.6)", SignalModel.binary(Fraction(3, 5)))],
        n_values=(1, 2, 3, 5, 8),
    )
    checks += tail_bound_checks(
        depth=8,
        ratio=Fraction(7, 10),
        n_values=(10, 50, 250),
        trials=max(trials // 4, 1000),
        seed=seed,
    )
    checks += example_invariant_checks()
    return VerificationReport(checks=checks)
