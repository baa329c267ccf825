"""The benchmark's workloads: inputs made from a seed, the timed calls, and
the checks that the calls' outputs are right.

Each workload is a fixed list of calls made once per pass, in order, by one
caller that waits for each call (a closed loop with one client).  CLI calls
go through ``agreelab.cli.main``; the others are library calls.  Every name
is looked up on its module at call time, so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import random
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from agreelab import bounds, cli, dynamics, harness, knowledge, scenarios, signals

EXPECTED_PATH = Path(__file__).with_name("expected.json")
SIGMAS = 4
FLOAT_TOLERANCE = 1e-9
ACCURACY = Fraction(2, 3)
SEED_RANGE = 2**31


def canonical(value) -> str:
    """Exact text of a returned value; Fractions in hex, which stays linear
    in their size (their decimal digits can run past Python's int-to-str
    limit)."""
    if dataclasses.is_dataclass(value):
        fields = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}" for f in dataclasses.fields(value)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    return repr(value)


def fraction_digest(value: Fraction) -> str:
    return hashlib.sha256(canonical(value).encode()).hexdigest()


@dataclass
class Outcome:
    ok: bool
    text: str = ""
    value: object = None
    detail: str = ""

    def output(self) -> str:
        """What must repeat byte for byte: CLI stdout, or the canonical value."""
        return self.text if self.value is None else canonical(self.value)


class CliCall:
    """One ``agreelab`` command; its output is what it writes to stdout."""

    def __init__(self, key: str, argv: list[str], trials: int = 0):
        self.key = key
        self.argv = argv
        self.trials = trials  # Monte Carlo trials the command runs, for trials_per_s

    def run(self) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        return Outcome(ok=code == 0, text=out.getvalue(), detail=f"exit {code}: {err.getvalue()}")

    def describe(self) -> str:
        return "agreelab " + " ".join(self.argv)


class LibCall:
    """One library call; its output is the canonical text of its value."""

    trials = 0

    def __init__(self, key: str, fn):
        self.key = key
        self.fn = fn

    def run(self) -> Outcome:
        try:
            value = self.fn()
        except Exception:
            return Outcome(ok=False, detail=traceback.format_exc())
        return Outcome(ok=True, value=value)

    def describe(self) -> str:
        return self.key


class Checks:
    """Named pass/fail checks; failed/attempted is check_fail_frac."""

    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def near(self, name: str, observed: float, p: Fraction, trials: int) -> None:
        """Observed rate within SIGMAS binomial standard errors of the exact p."""
        sigma = math.sqrt(float(p * (1 - p)) / trials)
        self.add(
            name,
            abs(observed - float(p)) <= SIGMAS * sigma,
            f"observed {observed!r}, exact {float(p)!r}, sigma {sigma:.3g}",
        )

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.items)


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))


def fractions(law: dict) -> dict:
    return {k: Fraction(v) for k, v in law.items()}


def check_rates(checks: Checks, label: str, row: dict | None, law: dict) -> None:
    """A simulate/sweep CSV row against the exact law of its action.

    ``success_rate`` resolves ties with a fair coin, so its exact value is
    success + tie/2; the tie rate is ties/trials.
    """
    if row is None:
        checks.add(f"{label}: row present", False)
        return
    trials = int(row["trials"])
    tallies = int(row["successes"]) + int(row["ties"]) + int(row["failures"])
    checks.add(f"{label}: tallies sum to trials", tallies == trials)
    checks.near(
        f"{label}: success_rate", float(row["success_rate"]), law["success"] + law["tie"] / 2, trials
    )
    checks.near(f"{label}: tie rate", int(row["ties"]) / trials, law["tie"], trials)


def protocol_law(scenario, kind: str) -> dict:
    """Exact law of a protocol's fixed-point common action, bucketed the way
    ``run_monte_carlo`` buckets trials (scenarios without a trial relabel)."""
    space = scenario.outcome_space()
    final, _ = dynamics.fixed_point_partitions(kind, space, scenario.initial_partitions(space))
    beliefs = [knowledge.belief_function(space, p) for p in final]
    law = {"success": Fraction(0), "tie": Fraction(0), "failure": Fraction(0)}
    for (state, profile), weight in space.weights.items():
        actions = {knowledge.optimal_action_set(b(profile)) for b in beliefs}
        if len(actions) != 1:
            raise ValueError(f"{scenario.name} {kind}: actions unequal at the fixed point")
        action = actions.pop()
        if action == knowledge.ACTION_BOTH:
            law["tie"] += weight
        elif action == frozenset({state}):
            law["success"] += weight
        else:
            law["failure"] += weight
    return law


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.calls = self.make_calls(random.Random(seed))

    def make_calls(self, rng: random.Random) -> list:
        raise NotImplementedError

    def check(self, outcomes: dict[str, Outcome], expected: dict, checks: Checks) -> None:
        raise NotImplementedError


class MonteCarlo(Workload):
    name = "monte_carlo"
    why = (
        "README sweep, parity simulate and verify: per-trial generators, the pooled "
        "and profile samplers and exact-tie fallbacks do nearly all the work"
    )
    SWEEP_N = (10, 20, 50, 100)
    # Short passes: many per run, so the median rides out slow spells of a
    # shared machine.
    SWEEP_TRIALS = 5_000
    PARITY_TRIALS = 2_500
    VERIFY_TRIALS = 4_000

    def make_calls(self, rng):
        sweep_seed, parity_seed, verify_seed = (rng.randrange(SEED_RANGE) for _ in range(3))
        return [
            CliCall(
                "sweep iid_binary",
                ["sweep", "--scenario", "iid_binary", "--param", "p=2/3",
                 "--n", ",".join(map(str, self.SWEEP_N)), "--trials", str(self.SWEEP_TRIALS),
                 "--seed", str(sweep_seed), "--format", "csv"],
                trials=self.SWEEP_TRIALS * len(self.SWEEP_N),
            ),
            CliCall(
                "simulate parity",
                ["simulate", "--scenario", "parity", "--n", "3", "--protocol", "public-belief",
                 "--trials", str(self.PARITY_TRIALS), "--seed", str(parity_seed), "--format", "csv"],
                trials=self.PARITY_TRIALS,
            ),
            CliCall(
                "verify",
                ["verify", "--seed", str(verify_seed), "--trials", str(self.VERIFY_TRIALS),
                 "--format", "csv"],
            ),
        ]

    def check(self, outcomes, expected, checks):
        laws = expected["monte_carlo"]["sweep"]
        rows = {row["n"]: row for row in read_csv(outcomes["sweep iid_binary"].text)}
        for n in self.SWEEP_N:
            check_rates(checks, f"sweep n={n}", rows.get(str(n)), fractions(laws[str(n)]))
        parity = read_csv(outcomes["simulate parity"].text)
        if parity:
            checks.near(
                "parity: success_rate",
                float(parity[0]["success_rate"]),
                Fraction(1, 2),
                int(parity[0]["trials"]),
            )
        else:
            checks.add("parity: row present", False)
        report = read_csv(outcomes["verify"].text)
        checks.add(
            "verify: report has checks and none failed",
            bool(report) and all(row["status"] != "fail" for row in report),
        )


class FixedPoints(Workload):
    name = "fixed_points"
    why = (
        "exact fixed points of four protocols on iid_binary(12) and public-action on "
        "geometric_tail(3): outcome-space build, refinement and belief functions"
    )
    TRIALS = 1_000
    IID_PROTOCOLS = ("public-belief", "public-action", "statistic", "network")
    KINDS = {
        "public-belief": dynamics.PUBLIC_BELIEF,
        "public-action": dynamics.PUBLIC_ACTION,
        "statistic": dynamics.PUBLIC_STATISTIC,
        "network": dynamics.NETWORK_BELIEF,
    }
    # (family, params, n, protocol) of each simulate command.
    COMMANDS = tuple(("iid_binary", {"p": ACCURACY}, 12, p) for p in IID_PROTOCOLS) + (
        ("geometric_tail", {}, 3, "public-action"),
    )
    EXACT_N = 10

    @staticmethod
    def key(family: str, n: int, protocol: str) -> str:
        return f"{family}({n}) {protocol}"

    def make_calls(self, rng):
        calls = []
        for family, params, n, protocol in self.COMMANDS:
            argv = ["simulate", "--scenario", family]
            for name, value in params.items():
                argv += ["--param", f"{name}={value}"]
            argv += ["--n", str(n), "--protocol", protocol, "--trials", str(self.TRIALS),
                     "--seed", str(rng.randrange(SEED_RANGE)), "--format", "csv"]
            calls.append(CliCall(self.key(family, n, protocol), argv, trials=self.TRIALS))
        return calls

    def check(self, outcomes, expected, checks):
        laws = expected["fixed_points"]
        for call in self.calls:
            rows = read_csv(outcomes[call.key].text)
            check_rates(checks, call.key, rows[0] if rows else None, fractions(laws[call.key]))
        # All four protocols reach the pooled law on iid_binary; checked exactly.
        pooled = harness.exact_pooled_summary(signals.SignalModel.binary(ACCURACY), self.EXACT_N)
        pooled_law = {"success": pooled.success, "tie": pooled.tie, "failure": pooled.failure}
        scenario = scenarios.iid_binary(self.EXACT_N, ACCURACY)
        for protocol in self.IID_PROTOCOLS:
            checks.add(
                f"iid_binary({self.EXACT_N}) {protocol}: exact law equals the pooled law",
                protocol_law(scenario, self.KINDS[protocol]) == pooled_law,
            )


class ExactLaws(Workload):
    name = "exact_laws"
    why = (
        "exact rational count-vector laws (pooled, senate, estimator moments) and "
        "qn_bound: no sampling and no partitions"
    )
    BINARY_N = (200, 400, 800)
    TERNARY_N = 80
    MOMENTS_N = 150
    SENATE = (1000, 301)
    QN_N = (10, 100, 1000)

    def make_calls(self, rng):
        # The inputs are fixed exact models; the seed has nothing to choose.
        binary = signals.SignalModel.binary(ACCURACY)
        ternary = signals.SignalModel(
            alphabet=(0, 1, 2),
            mu0=(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            mu1=(Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        senate = scenarios.senate(self.SENATE[0], senate_size=self.SENATE[1])
        tail = scenarios.geometric_tail_model(12, Fraction(7, 10))
        grid = bounds.default_eps_grid(1e-6, 0.5, 512)
        d_binary = harness.binary_noise_to_signal_exact(ACCURACY)
        d_ternary = Fraction(signals.noise_to_signal_ratio(ternary))
        # Agent count and noise-to-signal ratio D behind each law, for the bounds.
        self.subject = {}
        calls = []
        for n in self.BINARY_N:
            key = f"exact_pooled_summary binary(2/3) n={n}"
            calls.append(LibCall(key, lambda n=n: harness.exact_pooled_summary(binary, n)))
            self.subject[key] = (n, d_binary)
        key = f"exact_pooled_summary ternary n={self.TERNARY_N}"
        calls.append(LibCall(key, lambda: harness.exact_pooled_summary(ternary, self.TERNARY_N)))
        self.subject[key] = (self.TERNARY_N, d_ternary)
        key = f"estimator_moments_by_counts ternary n={self.MOMENTS_N}"
        calls.append(LibCall(key, lambda: bounds.estimator_moments_by_counts(ternary, self.MOMENTS_N)))
        self.subject[key] = (self.MOMENTS_N, d_ternary)
        key = f"senate_exact_summary senate{self.SENATE}"
        calls.append(LibCall(key, lambda: harness.senate_exact_summary(senate)))
        self.subject[key] = (self.SENATE[0], d_binary)
        calls += [
            LibCall(f"qn_bound geometric_tail(K=12, 7/10) n={n}",
                    lambda n=n: bounds.qn_bound(n, signals.belief_tail_cdf(tail, 0), eps_grid=grid))
            for n in self.QN_N
        ]
        return calls

    def check(self, outcomes, expected, checks):
        recorded = expected["exact_laws"]
        for call in self.calls:
            value, want = outcomes[call.key].value, recorded[call.key]
            if value is None:
                checks.add(f"{call.key}: returned a value", False)
            elif isinstance(value, harness.ExactSummary):
                for field in ("success", "tie", "failure", "msbe"):
                    checks.add(
                        f"{call.key}: {field} identical to the recorded Fraction",
                        fraction_digest(getattr(value, field)) == want[field]["sha256"],
                    )
                checks.add(f"{call.key}: success + tie + failure == 1",
                           value.success + value.tie + value.failure == 1)
                n, d = self.subject[call.key]
                checks.add(f"{call.key}: not_learned <= 4D/(n+D)", value.not_learned <= 4 * d / (n + d))
                checks.add(f"{call.key}: msbe <= D/(n+D)", value.msbe <= d / (n + d))
            elif isinstance(value, bounds.EstimatorMoments):
                n, d = self.subject[call.key]
                checks.add(f"{call.key}: Var(Y-S) == D/4n",
                           abs(value.var_y_minus_s - float(d) / (4 * n)) <= FLOAT_TOLERANCE)
                checks.add(f"{call.key}: Cov(S,Y) == 1/4",
                           abs(value.cov_s_y - 0.25) <= FLOAT_TOLERANCE)
            else:
                checks.add(f"{call.key}: equals the recorded bound",
                           abs(value - want) <= FLOAT_TOLERANCE * abs(want),
                           f"observed {value!r}, recorded {want!r}")


WORKLOADS = {w.name: w for w in (MonteCarlo, FixedPoints, ExactLaws)}


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)
