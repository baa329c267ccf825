"""Monte Carlo engine, exact summaries, sweeps, verification reports."""

from fractions import Fraction

import pytest

from agreelab.dynamics import PUBLIC_ACTION, PUBLIC_BELIEF
from agreelab.errors import EnumerationBudgetError
from agreelab.harness import (
    POOLED,
    TrialSummary,
    _protocol_outcome_table,
    aggregate_bound_checks,
    agreement_identity_checks,
    binary_noise_to_signal_exact,
    default_verification_suite,
    estimator_identity_checks,
    exact_pooled_summary,
    run_monte_carlo,
    senate_exact_summary,
    sweep_n,
    verify_report,
)
from agreelab.knowledge import ACTION_BOTH, ACTION_ONE, ACTION_ZERO, optimal_action_set
from agreelab.scenarios import iid_binary, parity, senate
from agreelab.signals import SignalModel

BINARY_23 = SignalModel.binary(Fraction(2, 3))


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

    def test_row_streams_are_independent(self):
        scenario = iid_binary(20, Fraction(2, 3))
        a = run_monte_carlo(scenario, POOLED, 2000, seed=7, row_key=(0,))
        b = run_monte_carlo(scenario, POOLED, 2000, seed=7, row_key=(1,))
        assert (a.successes, a.ties, a.failures) != (b.successes, b.ties, b.failures)


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
        from agreelab import harness, scenarios

        calls = []

        def counted(model, n):
            calls.append(n)
            return exact_pooled_summary(model, n)

        monkeypatch.setattr(harness, "exact_pooled_summary", counted)
        monkeypatch.setattr(scenarios, "exact_pooled_summary", counted)
        assert senate_exact_summary(senate(400)) == exact_pooled_summary(BINARY_23, 100)
        assert calls == [100]

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
            table = _protocol_outcome_table(scenario, PUBLIC_BELIEF, 2**24)
            space = scenario.outcome_space()
            success = Fraction(0)
            for (state, profile), w in space.weights.items():
                label, _x = table[profile]
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
        rows = [(10, exact_pooled_summary(BINARY_23, 10))]
        honest = aggregate_bound_checks("iid", binary_noise_to_signal_exact(Fraction(2, 3)), rows)
        assert all(c.status in ("pass", "vacuous") for c in honest)
        corrupted = aggregate_bound_checks("iid", Fraction(1, 2), rows)
        assert any(c.status == "fail" for c in corrupted)

    def test_vacuous_rows_never_fail(self):
        rows = [(2, exact_pooled_summary(BINARY_23, 2))]
        checks = aggregate_bound_checks("iid", Fraction(8), rows)
        action_check = [c for c in checks if c.name.startswith("wrong-action")][0]
        assert action_check.status == "vacuous"

    def test_report_serialization(self):
        report = verify_report(
            aggregate_bound_checks(
                "iid", Fraction(8), [(50, exact_pooled_summary(BINARY_23, 50))]
            )
        )
        data = report.to_dict()
        assert data["checks"][0]["name"].startswith("wrong-action-bound")
        csv = report.to_csv()
        assert csv.splitlines()[1].startswith("name,status,observed")


class TestTrialSummaryShape:
    def test_to_dict_roundtrip(self):
        summary = run_monte_carlo(iid_binary(10, Fraction(2, 3)), POOLED, 100, seed=0)
        data = summary.to_dict()
        assert data["scenario"] == "iid_binary(10, 2/3)"
        assert data["trials"] == 100
        assert data["rng"].startswith("philox4x64")
        assert isinstance(summary, TrialSummary)
