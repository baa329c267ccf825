"""Monte Carlo engine, exact summaries, sweeps, verification reports."""

import csv
import math
from fractions import Fraction

import numpy as np
import pytest
from reference import profile_statistics, protocol_outcome_table

from agreelab.bounds import count_posterior, qn_bound
from agreelab.dynamics import (
    NETWORK_BELIEF,
    PUBLIC_ACTION,
    PUBLIC_BELIEF,
    PUBLIC_STATISTIC,
    fixed_point_partitions,
)
from agreelab.errors import EnumerationBudgetError
from agreelab.harness import (
    CHUNK_TRIALS,
    POOLED,
    TrialSummary,
    aggregate_bound_checks,
    agreement_identity_checks,
    binary_noise_to_signal_exact,
    chunk_streams,
    default_verification_suite,
    estimator_identity_checks,
    example_invariant_checks,
    exact_pooled_summary,
    pooled_bound_rows,
    run_monte_carlo,
    senate_exact_summary,
    sweep_n,
    tail_bound_checks,
    trial_rng,
    verify_report,
)
from agreelab.knowledge import (
    ACTION_BOTH,
    ACTION_ONE,
    ACTION_SETS,
    ACTION_ZERO,
    belief_function,
    optimal_action_set,
    pooled_posterior,
)
from agreelab.scenarios import (
    Scenario,
    SenateStaged,
    geometric_tail,
    iid_binary,
    iid_custom,
    parity,
    senate,
    two_bit,
    uncorrelated_tight,
)
from agreelab.signals import SignalModel, belief_tail_cdf

BINARY_23 = SignalModel.binary(Fraction(2, 3))


@pytest.fixture
def stream_keys(monkeypatch):
    """The (seed, *key) of every stream the harness opens, in order."""
    from agreelab import harness

    keys = []

    def recorded(seed, *key):
        keys.append((seed, *key))
        return trial_rng(seed, *key)

    monkeypatch.setattr(harness, "trial_rng", recorded)
    return keys


class TestDeterminism:
    def test_identical_seeds_identical_summaries(self):
        scenario = iid_binary(20, Fraction(2, 3))
        a = run_monte_carlo(scenario, POOLED, 2000, seed=99)
        b = run_monte_carlo(scenario, POOLED, 2000, seed=99)
        assert a == b

    def test_different_seeds_differ(self):
        scenario = iid_binary(20, Fraction(2, 3))
        a = run_monte_carlo(scenario, POOLED, 2000, seed=1)
        b = run_monte_carlo(scenario, POOLED, 2000, seed=2)
        assert a.successes != b.successes or a.msbe != b.msbe

    def test_row_streams_are_independent(self, stream_keys):
        """Rows are keyed by their agent count: n = 20 and n = 21 draw from
        different streams under one seed."""
        run_monte_carlo(iid_binary(20, Fraction(2, 3)), POOLED, 2000, seed=7)
        run_monte_carlo(iid_binary(21, Fraction(2, 3)), POOLED, 2000, seed=7)
        assert stream_keys == [(7, 20, 0), (7, 21, 0)]
        a, b = (trial_rng(*key).integers(0, 2**62, size=4) for key in stream_keys)
        assert not np.array_equal(a, b)


class TestChunkStreams:
    """Rows are keyed by content: (seed, n, chunk), never by position."""

    P = {"p": Fraction(2, 3)}

    @staticmethod
    def rows(table) -> dict:
        return {line.split(",")[0]: line for line in table.to_csv().splitlines()[2:]}

    def test_adding_an_n_leaves_the_other_rows_byte_identical(self):
        short = sweep_n("iid_binary", (10, 50), 3000, seed=5, params=self.P)
        longer = sweep_n("iid_binary", (10, 20, 50), 3000, seed=5, params=self.P)
        added = self.rows(longer)
        del added["20"]
        assert self.rows(short) == added

    def test_simulate_prints_the_tallies_of_its_sweep_row(self, capsys):
        from agreelab.cli import main

        argv = ["--scenario", "iid_binary", "--param", "p=2/3", "--trials", "3000",
                "--seed", "5", "--format", "csv"]
        assert main(["simulate", "--n", "20", *argv]) == 0
        simulated = capsys.readouterr().out
        assert main(["sweep", "--n", "10,20,50", *argv]) == 0
        swept = capsys.readouterr().out

        def read(text):
            return list(csv.DictReader(l for l in text.splitlines() if not l.startswith("#")))

        row = {r["n"]: r for r in read(swept)}["20"]
        fields = ("trials", "successes", "ties", "failures", "success_rate", "stderr", "msbe", "seed")
        assert [read(simulated)[0][f] for f in fields] == [row[f] for f in fields]

    def test_one_trial_past_a_chunk_uses_two_streams(self, stream_keys):
        scenario = iid_binary(20, Fraction(2, 3))
        first = run_monte_carlo(scenario, POOLED, CHUNK_TRIALS + 1, seed=3)
        assert stream_keys == [(3, 20, 0), (3, 20, 1)]
        assert run_monte_carlo(scenario, POOLED, CHUNK_TRIALS + 1, seed=3) == first
        assert first.trials == CHUNK_TRIALS + 1


class TestBatchedAgainstExactLaws:
    """Batched estimates within 4 binomial standard errors of exact laws."""

    TRIALS = 20_000
    SIGMAS = 4

    def near(self, observed: float, p, trials: int) -> None:
        sigma = math.sqrt(float(p * (1 - p)) / trials)
        assert abs(observed - float(p)) <= self.SIGMAS * sigma, (observed, float(p), sigma)

    def against(self, summary, exact) -> None:
        trials = summary.trials
        self.near(summary.success_rate, exact.success + exact.tie / 2, trials)
        self.near(summary.tie_rate, exact.tie, trials)
        self.near(summary.failure_rate, exact.failure, trials)

    @pytest.mark.parametrize("n", [10, 20, 50, 100])
    def test_iid_binary_pooled(self, n):
        summary = run_monte_carlo(iid_binary(n, Fraction(2, 3)), POOLED, self.TRIALS, seed=41)
        self.against(summary, exact_pooled_summary(BINARY_23, n))

    def test_iid_binary_protocol(self):
        summary = run_monte_carlo(iid_binary(10, Fraction(2, 3)), PUBLIC_BELIEF, self.TRIALS, seed=42)
        self.against(summary, exact_pooled_summary(BINARY_23, 10))

    def test_ternary_pooled(self):
        model = SignalModel(
            ("a", "b", "c"),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        summary = run_monte_carlo(iid_custom(12, model), POOLED, self.TRIALS, seed=43)
        exact = exact_pooled_summary(model, 12)
        assert exact.tie > 0
        self.against(summary, exact)

    def test_senate_public_action(self):
        scenario = senate(200)
        summary = run_monte_carlo(scenario, PUBLIC_ACTION, self.TRIALS, seed=44)
        self.against(summary, senate_exact_summary(scenario))

    def test_uncorrelated_tight_failure_rate(self):
        scenario = uncorrelated_tight(16)
        summary = run_monte_carlo(scenario, POOLED, self.TRIALS, seed=45)
        self.near(summary.failure_rate, 1 - scenario.metadata["q"], self.TRIALS)

    def test_parity_success_rate(self):
        summary = run_monte_carlo(parity(3), PUBLIC_BELIEF, self.TRIALS, seed=46)
        assert summary.ties == self.TRIALS
        self.near(summary.success_rate, Fraction(1, 2), self.TRIALS)


class TestRunMonteCarlo:
    def test_bucket_accounting(self):
        summary = run_monte_carlo(parity(3), PUBLIC_BELIEF, 3000, seed=5)
        assert summary.successes + summary.ties + summary.failures == summary.trials
        assert summary.ties == summary.trials  # every parity trial is undecided
        assert abs(summary.success_rate - 0.5) <= 3 * summary.stderr + 1e-9

    def test_pooled_beats_action_bound(self):
        summary = run_monte_carlo(iid_binary(100, Fraction(2, 3)), POOLED, 10_000, seed=3)
        assert summary.success_rate >= 76 / 108

    def test_over_budget_protocol_raises(self):
        with pytest.raises(EnumerationBudgetError):
            run_monte_carlo(iid_binary(40, Fraction(2, 3)), PUBLIC_BELIEF, 10, seed=0)

    def test_senate_summary_builds_the_committee_law_once(self, monkeypatch):
        from agreelab import bounds, scenarios

        expected = exact_pooled_summary(BINARY_23, 100)
        calls = []
        classes = bounds.likelihood_classes

        def counted(model, n):
            calls.append(n)
            return classes(model, n)

        monkeypatch.setattr(bounds, "likelihood_classes", counted)
        monkeypatch.setattr(scenarios, "likelihood_classes", counted)
        assert senate_exact_summary(senate(400)) == expected
        assert calls == [100]

    def test_senate_analytic_sampler_builds_no_msbe(self, monkeypatch):
        """Deference needs only the committee's success and failure, so the
        analytic sampler never builds the pooled law's belief error."""
        from agreelab import bounds, harness, scenarios

        def refused(model, n):
            raise AssertionError("the analytic sampler built an msbe")

        for module in (bounds, harness, scenarios):
            monkeypatch.setattr(module, "exact_pooled_summary", refused, raising=False)
        summary = run_monte_carlo(senate(400), PUBLIC_ACTION, 200, seed=11)
        assert summary.trials == 200

    def test_senate_large_runs_analytically(self):
        summary = run_monte_carlo(senate(400), PUBLIC_ACTION, 3000, seed=11)
        exact = senate_exact_summary(senate(400))
        assert summary.trials == 3000
        # exact failure mass is about 2e-4; 3000 trials should see at most a few
        assert summary.failures <= 5
        assert float(exact.failure) == pytest.approx(1.989e-4, rel=5e-3)

    def test_protocol_and_pooled_agree_in_law_small_n(self):
        """Cross-validation of the pooled shortcut: the exact protocol table
        and the exact pooled law must classify identically."""
        for n in (2, 3, 4):
            scenario = iid_binary(n, Fraction(2, 3))
            space = scenario.outcome_space()
            codes, _x = protocol_outcome_table(scenario, PUBLIC_BELIEF, space)
            success = Fraction(0)
            for (state, profile), w in space.weights.items():
                label = ACTION_SETS[codes[space.position(profile)]]
                if label == (ACTION_ONE if state == 1 else ACTION_ZERO):
                    success += w
            exact = exact_pooled_summary(BINARY_23, n)
            assert success == exact.success


class TestExactSummaries:
    def test_pooled_matches_space_enumeration_oracle(self):
        """Independent oracle: classify every outcome of the full space."""
        n = 3
        space = iid_binary(n, Fraction(2, 3)).outcome_space()
        success = tie = failure = Fraction(0)
        from agreelab.knowledge import pooled_posterior

        for (state, profile), w in space.weights.items():
            action = optimal_action_set(pooled_posterior(space, profile))
            if action == ACTION_BOTH:
                tie += w
            elif action == (ACTION_ONE if state == 1 else ACTION_ZERO):
                success += w
            else:
                failure += w
        summary = exact_pooled_summary(BINARY_23, n)
        assert (summary.success, summary.tie, summary.failure) == (success, tie, failure)

    def test_even_n_has_tie_mass(self):
        summary = exact_pooled_summary(BINARY_23, 2)
        assert summary.tie == Fraction(4, 9)  # profiles (1,0) and (0,1)

    def test_senate_summary_fields(self):
        summary = senate_exact_summary(senate(200))
        assert summary.success + summary.tie + summary.failure == 1
        assert summary.failure < Fraction(1, 1000)

    @pytest.mark.parametrize("n, m", [(5, 2), (8, 5), (12, 9)])
    def test_senate_public_action_table_reports_the_committee_belief(self, n, m):
        """In budget as over it, public-action's X is the committee's pooled
        belief, so the table's exact belief error is the committee law's."""
        scenario = senate(n, senate_size=m)
        space = scenario.outcome_space()
        statistics = profile_statistics(scenario, space)
        _codes, xs = scenario.structure.trial_outcomes(n, PUBLIC_ACTION)(statistics)
        model = scenario.structure.model
        exact = [count_posterior(model, (m - sum(p[:m]), sum(p[:m]))) for p in space.profiles]
        assert xs.tolist() == [float(x) for x in exact]
        msbe = sum(
            Fraction(w0, space.den) * x**2 + Fraction(w1, space.den) * (1 - x) ** 2
            for x, w0, w1 in zip(exact, space.w0.tolist(), space.w1.tolist())
        )
        assert msbe == senate_exact_summary(scenario).msbe

    def test_binary_noise_ratio_closed_form(self):
        assert binary_noise_to_signal_exact(Fraction(2, 3)) == 8
        assert binary_noise_to_signal_exact(Fraction(3, 4)) == 3


class TestSweep:
    def test_rows_and_columns(self):
        table = sweep_n("iid_binary", (10, 20), 500, seed=4, params={"p": Fraction(2, 3)})
        assert [row.n for row in table.rows] == [10, 20]
        assert all(row.bound_report is not None for row in table.rows)
        assert all(row.bound_report.d == pytest.approx(8.0, abs=1e-9) for row in table.rows)
        csv = table.to_csv()
        lines = csv.split("\n")
        assert lines[0].startswith("# generator=philox4x64")
        assert lines[1].startswith("n,trials,successes,ties,failures")
        assert len(lines) == 5  # comment, header, 2 rows, trailing newline

    def test_csv_byte_identical_across_runs(self):
        kwargs = dict(n_values=(8, 16), trials=400, seed=21)
        a = sweep_n("uncorrelated_tight", **kwargs).to_csv()
        b = sweep_n("uncorrelated_tight", **kwargs).to_csv()
        assert a == b

    def test_parity_rows_have_no_bound_columns(self):
        table = sweep_n("parity", (2, 3), 100, seed=0, mode=PUBLIC_BELIEF)
        assert all(row.bound_report is None for row in table.rows)
        assert all(row.qn is None for row in table.rows)

    def test_senate_error_flat_across_rows(self):
        table = sweep_n(
            "senate", (200, 400), 4000, seed=9, mode=PUBLIC_ACTION,
            params={"senate_size": 100},
        )
        rates = [row.summary.failure_rate for row in table.rows]
        sigma = 3 * (2e-4 / 4000) ** 0.5  # generous: failures are rare events
        assert abs(rates[0] - rates[1]) <= max(sigma, 3e-3)

    def test_rows_sorted_by_n(self):
        table = sweep_n("parity", (4, 2, 3), 50, seed=0, mode=PUBLIC_BELIEF)
        assert [row.n for row in table.rows] == [2, 3, 4]

    def test_success_rate_clears_the_action_bound_where_binding(self):
        table = sweep_n(
            "iid_binary", (50, 100, 200), 5000, seed=31,
            params={"p": Fraction(2, 3)},
        )
        for row in table.rows:
            assert row.bound_report.action_bound > 0
            margin = 3 * row.summary.stderr
            assert row.summary.success_rate >= row.bound_report.action_bound - margin


def spy(monkeypatch, owner, name) -> list:
    """The arguments of every call of ``owner.name``, which still runs."""
    calls, original = [], getattr(owner, name)

    def recorded(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)
    return calls


class TestBoundsOncePerModel:
    def test_tail_checks_build_the_model_and_cdf_once(self, monkeypatch):
        """Three agent counts share one model, one cdf and one bound call,
        while each n still draws through its scenario's pooled sampler, and
        the checks are those of a geometric_tail scenario built per n."""
        from agreelab import harness

        models = spy(monkeypatch, harness, "geometric_tail_model")
        cdfs = spy(monkeypatch, harness, "belief_tail_cdf")
        bound_calls = spy(monkeypatch, harness, "qn_bounds")
        samplers = spy(monkeypatch, Scenario, "pooled_sampler")
        checks = tail_bound_checks(8, Fraction(7, 10), (10, 50, 250), 1000, seed=5)
        assert len(models) == len(cdfs) == len(bound_calls) == 1
        assert [scenario.n for scenario, in samplers] == [10, 50, 250]
        for n, check in zip((10, 50, 250), checks):
            scenario = geometric_tail(n)
            draw = scenario.pooled_sampler()
            wrong = sum(
                int(np.count_nonzero(draw(rng, size, force_state=0)[1] != 0))
                for rng, size in chunk_streams(5, n, 1000)
            )
            assert check.observed == wrong / 1000
            assert check.bound == qn_bound(n, belief_tail_cdf(scenario.marginal_model, 0))

    def test_sweep_reads_one_tail_per_model(self, monkeypatch):
        from agreelab import harness

        cdfs = spy(monkeypatch, harness, "belief_tail_cdf")
        table = sweep_n("iid_binary", (10, 20, 50, 100), 200, seed=1, params={"p": Fraction(2, 3)})
        assert len(cdfs) == 1
        cdf = belief_tail_cdf(BINARY_23, 0)
        assert [row.qn for row in table.rows] == [qn_bound(n, cdf) for n in (10, 20, 50, 100)]

    def test_sweep_reads_one_tail_per_distinct_model(self, monkeypatch):
        """uncorrelated_tight's marginal model moves with n; a repeated n
        reads its model's tail no second time."""
        from agreelab import harness

        cdfs = spy(monkeypatch, harness, "belief_tail_cdf")
        n_values = (8, 16, 8, 24)
        table = sweep_n("uncorrelated_tight", n_values, 200, seed=1)
        models = {n: uncorrelated_tight(n).marginal_model for n in n_values}
        assert len(cdfs) == len(set(models.values())) == 3
        assert {model for model, _state in cdfs} == set(models.values())
        assert {state for _model, state in cdfs} == {0}
        for row in table.rows:
            alone = sweep_n("uncorrelated_tight", (row.n,), 200, seed=1).rows[0]
            assert (row.qn, row.bound_report) == (alone.qn, alone.bound_report)

    def test_an_invalid_grid_fails_before_any_trial(self, monkeypatch):
        from agreelab import harness

        runs = spy(monkeypatch, harness, "run_monte_carlo")
        with pytest.raises(ValueError, match="thresholds"):
            sweep_n("iid_binary", (10, 20), 200, seed=1, params={"p": Fraction(2, 3)},
                    eps_grid=(0.1, 1.5))
        assert runs == []


@pytest.mark.parametrize(
    "scenario, mode",
    [
        (two_bit(8), PUBLIC_BELIEF),
        (uncorrelated_tight(8), PUBLIC_ACTION),
        (parity(4), PUBLIC_BELIEF),
        (uncorrelated_tight(8), PUBLIC_STATISTIC),
        (two_bit(4), NETWORK_BELIEF),
    ],
    ids=lambda value: getattr(value, "name", value),
)
def test_monte_carlo_derives_no_profile_tuples(scenario, mode, monkeypatch):
    """Parity, flip and two-bit decide their trials in closed form from the
    symbol rows: no outcome space, hence no profile tuple, is built."""
    built = []
    build = Scenario.outcome_space

    def recording(self):
        built.append(build(self))
        return built[-1]

    monkeypatch.setattr(Scenario, "outcome_space", recording)
    summary = run_monte_carlo(scenario, mode, 300, seed=3)
    assert summary.trials == 300
    assert built == []


class TestVerification:
    def test_default_suite_is_green(self):
        report = default_verification_suite(seed=17, trials=4000)
        assert report.passed
        assert any(c.status == "vacuous" for c in report.checks)
        text = report.to_text()
        assert "fail" in text  # the tally line mentions the zero count

    def test_agreement_checks_catch_non_iid_structures(self):
        """Safety net: the identity is a theorem only under conditional
        independence, so the parity scenario must trip it."""
        checks = agreement_identity_checks([parity(2)])
        assert checks[0].status == "fail"
        # Every profile's pooled posterior is 0 or 1, every belief 1/2.
        assert checks[0].observed == 4
        assert checks[0].detail == "4 profiles, common knowledge=True"

    @pytest.mark.parametrize(
        "scenario",
        [
            iid_binary(3, Fraction(2, 3)),
            geometric_tail(2),
            parity(3),
            uncorrelated_tight(8),
            two_bit(4),
            senate(7, senate_size=3),
        ],
        ids=lambda scenario: scenario.name,
    )
    def test_agreement_checks_count_like_the_per_profile_loop(self, scenario):
        (check,) = agreement_identity_checks([scenario])
        space = scenario.outcome_space()
        final, _ = fixed_point_partitions(PUBLIC_BELIEF, space, scenario.initial_partitions(space))
        beliefs = [belief_function(space, p) for p in final]
        mismatches = sum(
            {b(profile) for b in beliefs} != {pooled_posterior(space, profile)}
            for profile in space.profiles
        )
        assert check.observed == mismatches
        assert check.detail == f"{len(space.profiles)} profiles, common knowledge=True"

    def test_corrupted_noise_ratio_fails_identity_checks(self):
        """Feeding a halved D into the estimator identities must fail."""
        model = BINARY_23
        good = estimator_identity_checks([("ok", model)], n_values=(2, 4))
        assert all(c.status == "pass" for c in good)

        from agreelab.bounds import estimator_moments_enumerated
        from agreelab.signals import noise_to_signal_ratio

        d_half = noise_to_signal_ratio(model) / 2
        moments = estimator_moments_enumerated(model, 4)
        assert abs(moments.var_y_minus_s - d_half / 16) > 1e-3

    def test_corrupted_noise_ratio_fails_bound_checks(self):
        """A sufficiently understated D must flip the exact bound checks."""
        rows = pooled_bound_rows(BINARY_23, (10,))
        honest = aggregate_bound_checks("iid", binary_noise_to_signal_exact(Fraction(2, 3)), rows)
        assert all(c.status in ("pass", "vacuous") for c in honest)
        corrupted = aggregate_bound_checks("iid", Fraction(1, 2), rows)
        assert any(c.status == "fail" for c in corrupted)

    def test_vacuous_rows_never_fail(self):
        rows = pooled_bound_rows(BINARY_23, (2,))
        checks = aggregate_bound_checks("iid", Fraction(8), rows)
        action_check = [c for c in checks if c.name.startswith("wrong-action")][0]
        assert action_check.status == "vacuous"

    def test_report_serialization(self):
        report = verify_report(
            aggregate_bound_checks(
                "iid", Fraction(8), pooled_bound_rows(BINARY_23, (50,))
            )
        )
        data = report.to_dict()
        assert data["checks"][0]["name"].startswith("wrong-action-bound")
        csv = report.to_csv()
        assert csv.splitlines()[1].startswith("name,status,observed")

    def test_certified_rows_check_as_the_exact_laws(self):
        """verify's rows (the exact not-learned mass and the certified msbe)
        give the checks that exact_pooled_summary's Fractions give."""
        n_values = (10, 20, 50, 100, 200)
        d = binary_noise_to_signal_exact(Fraction(2, 3))
        exact = [
            (n, law.not_learned, law.msbe)
            for n in n_values
            for law in (exact_pooled_summary(BINARY_23, n),)
        ]
        rows = pooled_bound_rows(BINARY_23, n_values)
        assert [r[:2] for r in rows] == [r[:2] for r in exact]
        assert aggregate_bound_checks("iid", d, rows) == aggregate_bound_checks("iid", d, exact)

    def test_verify_builds_no_exact_msbe(self, monkeypatch):
        """The bound rows' msbe is certified without its Fraction, and the
        committee check reads the verdict's law alone."""
        from agreelab import bounds, harness

        def refused(*args):
            raise AssertionError("verify built an exact msbe")

        monkeypatch.setattr(bounds, "_exact_msbe", refused)
        monkeypatch.setattr(harness, "exact_pooled_summary", refused)
        assert default_verification_suite(seed=3, trials=1000).passed

    def test_verify_builds_no_summation_order(self, monkeypatch):
        """Only the exact msbe sums its terms in order; the certified bound
        rows and the committee's law build neither the basis nor the keys."""
        from agreelab import bounds

        def refused(*args):
            raise AssertionError("built the exact msbe's summation order")

        monkeypatch.setattr(bounds, "_summation_keys", refused)
        monkeypatch.setattr(bounds, "odds_basis", refused)
        assert len(pooled_bound_rows(BINARY_23, (10, 200))) == 2
        assert sum(senate(400).structure.action_law()) == 1
        with pytest.raises(AssertionError, match="summation order"):
            exact_pooled_summary(BINARY_23, 10)


COMMITTEE_LAWS = {
    "exact": lambda s, t, f: (s, t, f),
    "off-by-1e-9": lambda s, t, f: (s - Fraction(1, 10**9), t, f + Fraction(1, 10**9)),
    "never-wrong": lambda s, t, f: (s + f, t, Fraction(0)),
}


@pytest.mark.parametrize("law", list(COMMITTEE_LAWS))
def test_committee_row_checks_the_law_against_the_binomial_tail(law, monkeypatch):
    """The committee's verdict law is set against the binomial tail of its
    100 votes at 2/3, so a law off by 10^-9, or one that never errs, fails
    the row; three builds of one law could only agree with each other."""
    exact = SenateStaged.action_law
    monkeypatch.setattr(SenateStaged, "action_law", lambda self: COMMITTEE_LAWS[law](*exact(self)))
    (row,) = [c for c in example_invariant_checks() if c.name == "committee-law-is-binomial-tail"]
    assert row.status == ("pass" if law == "exact" else "fail")
    assert (row.observed == 0.0) == (law == "exact")


class TestTrialSummaryShape:
    def test_to_dict_roundtrip(self):
        summary = run_monte_carlo(iid_binary(10, Fraction(2, 3)), POOLED, 100, seed=0)
        data = summary.to_dict()
        assert data["scenario"] == "iid_binary(10, 2/3)"
        assert data["trials"] == 100
        assert data["rng"].startswith("philox4x64")
        assert isinstance(summary, TrialSummary)
