#!/usr/bin/env python3
"""Write perfbench/expected.json: the exact laws the benchmark checks against.

    python3 perfbench/record_expected.py

The checked-in file was recorded at the commit before the benchmark was
added.  Later code must reproduce it: rerunning this script on a correct
commit rewrites the file byte for byte.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from agreelab import bounds, harness, scenarios, signals  # noqa: E402
from workloads import (  # noqa: E402
    ACCURACY,
    EXPECTED_PATH,
    ExactLaws,
    FixedPoints,
    MonteCarlo,
    fraction_digest,
    protocol_law,
)


def law_strings(law: dict) -> dict:
    return {k: str(v) for k, v in law.items()}


def summary_digests(summary: harness.ExactSummary) -> dict:
    """Large laws are recorded by the digest of their exact text, with a float
    for the reader."""
    return {
        f.name: {"sha256": fraction_digest(v), "approx": float(v)}
        for f in dataclasses.fields(summary)
        for v in [getattr(summary, f.name)]
    }


def main() -> int:
    binary = signals.SignalModel.binary(ACCURACY)
    sweep = {
        str(n): law_strings(dataclasses.asdict(harness.exact_pooled_summary(binary, n)))
        for n in MonteCarlo.SWEEP_N
    }
    fixed = {}
    for family, params, n, protocol in FixedPoints.COMMANDS:
        scenario = scenarios.build_scenario(family, n, **params)
        fixed[FixedPoints.key(family, n, protocol)] = law_strings(
            protocol_law(scenario, FixedPoints.KINDS[protocol])
        )
    exact = {}
    for call in ExactLaws(0).calls:
        value = call.fn()
        if isinstance(value, harness.ExactSummary):
            exact[call.key] = summary_digests(value)
        elif isinstance(value, bounds.EstimatorMoments):
            exact[call.key] = dataclasses.asdict(value)
        else:
            exact[call.key] = value
    expected = {"monte_carlo": {"sweep": sweep}, "fixed_points": fixed, "exact_laws": exact}
    with open(EXPECTED_PATH, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
