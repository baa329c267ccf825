#!/usr/bin/env python3
"""Run one agreelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload monte_carlo --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; agreelab is imported from ``src/``.
One process, one caller: the workload's calls run in order, each waited
for, and the whole list repeats until ``--seconds`` is used up (at least
twice, and three times unless the third pass would end after twice
``--seconds``).  Fixed reference work timed between calls gives the
host's speed, which ``ref_wall_s`` divides out.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.
The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count correctness checks.  A run record with the machine, inputs,
per-pass times, checks and (traced) spans goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("monte_carlo", "fixed_points", "exact_laws")
# The host's other tenants slow it down in spells that last seconds to
# minutes.  Three passes let the median ignore one slowed pass (unless the
# third would end after twice --seconds), and setup samples are taken in
# batches spread over the run.
MIN_PASSES = 3
SETUP_SAMPLES = 5  # per batch
# The host's speed swings by up to 1.8x within a minute, for agreelab and for
# any other Python code alike.  Fixed pure-Python reference work, timed
# between every two calls, measures that speed; ref_wall_s scales each
# call's time to a host on which the reference work takes REF_LOOP_S.  Its
# four parts, of about equal time, are interpreted integer arithmetic, small
# Fractions stored in a dict, scattered reads from a 4 MB array and
# big-integer products, so that slowdowns of the interpreter, of the caches
# and of C arithmetic all show.  A larger share of one part steadied one
# workload and unsteadied another.
REF_LOOP_S = 0.1
REF_ARRAY = array("q", range(1 << 19))
REF_BIG = 3**20_000
REF_MODULUS = 7**11_000 + 2  # about as long as REF_BIG, so every product is full size
# A fresh interpreter that imports the CLI module and prints when it is ready.
READY = "import sys, time; sys.path.insert(0, sys.argv[1]); import agreelab.cli; print(time.monotonic_ns())"


@dataclass
class Pass:
    traced: bool
    call_s: list[float]
    ref_s: list[float]  # reference work times: before the first call and after each call
    ok: list[bool]
    digest: str
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def ref_wall_s(self) -> float:
        """Pass time at the reference speed: each call's time scaled by
        REF_LOOP_S over the mean of the reference work times around it."""
        return sum(
            s * REF_LOOP_S / ((before + after) / 2)
            for s, before, after in zip(self.call_s, self.ref_s, self.ref_s[1:])
        )


def reference_loop() -> float:
    """Seconds taken by the fixed reference work, at the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(265_000):
        x += i * i
    table = {}
    for i in range(6_200):
        table[(i * 7919) % 6203, i & 3] = Fraction(i, 3) + 1
    data, j, mask = REF_ARRAY, 1, len(REF_ARRAY) - 1
    for _ in range(70_000):
        j = (j * 1103515245 + 12345) & mask
        x += data[j]
    big = REF_BIG
    for _ in range(11):
        big = big * big % REF_MODULUS
    return time.perf_counter() - start


def measure_setup(samples: int) -> tuple[list[float], list[float]]:
    """Seconds from interpreter start until ``agreelab.cli`` is imported, once
    per fresh process: as measured, and scaled to the reference speed like
    ``ref_wall_s`` by the reference work timed just before and after."""
    raw, scaled = [], []
    before = reference_loop()
    for _ in range(samples):
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", READY, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        seconds = (int(proc.stdout) - start) / 1e9
        after = reference_loop()
        raw.append(seconds)
        scaled.append(seconds * REF_LOOP_S / ((before + after) / 2))
        before = after
    return raw, scaled


class SetupSampler:
    """Batches of setup samples: one before the loop, one once a third and
    once two thirds of ``seconds`` have passed, and one after the loop."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.raw: list[float] = []
        self.samples: list[float] = []  # scaled to the reference speed
        self.batches = 0

    def batch(self) -> None:
        raw, scaled = measure_setup(SETUP_SAMPLES)
        self.raw += raw
        self.samples += scaled
        self.batches += 1

    def after_pass(self, elapsed: float) -> None:
        if self.batches < 3 and elapsed >= self.batches * self.seconds / 3:
            self.batch()


def run_pass(calls, tracer) -> tuple[Pass, list]:
    if tracer is not None:
        tracer.install()
    try:
        outcomes, call_s, ref_s = [], [], [reference_loop()]
        for call in calls:
            t0 = time.perf_counter()
            outcomes.append(call.run())
            call_s.append(time.perf_counter() - t0)
            ref_s.append(reference_loop())
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256()
    for call, outcome in zip(calls, outcomes):
        digest.update(f"{call.key}\0{outcome.output()}\0".encode())
    done = Pass(tracer is not None, call_s, ref_s, [o.ok for o in outcomes], digest.hexdigest())
    if tracer is not None:
        done.layers = tracer.metrics(done.wall_s)
    return done, outcomes


def run_loop(calls, seconds: float, traced: bool, tracing, after_pass):
    """Repeat the calls until the next pass would overrun ``seconds``: at
    least twice, and MIN_PASSES times unless that overruns ``2 * seconds``.
    Traced runs alternate untraced and traced passes; ``after_pass(elapsed)``
    runs between passes, outside their timing."""
    passes, traces, first = [], [], None
    start = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if traced and len(passes) % 2 == 1 else None
        done, outcomes = run_pass(calls, tracer)
        passes.append(done)
        if first is None:
            first = outcomes
        if tracer is not None:
            traces.append(tracer.dump())
        elapsed = time.perf_counter() - start
        after_pass(elapsed)
        next_end = elapsed + max(p.wall_s + sum(p.ref_s) for p in passes)
        if len(passes) >= 2 and next_end > seconds and (
            len(passes) >= MIN_PASSES or next_end > 2 * seconds
        ):
            return passes, traces, first


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git; None
    outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(passes, setup: SetupSampler, calls) -> tuple[dict, dict]:
    """The result-line metrics, and the extra end-to-end figures for the record."""
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup.samples), "s", len(setup.samples)),
        "ref_wall_s": (statistics.median(p.ref_wall_s for p in passes), "s", len(passes)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    extra = {
        "setup_wall_s": (statistics.median(setup.raw), "s", len(setup.raw)),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s", len(passes)),
    }
    sampling = [i for i, call in enumerate(calls) if call.trials]
    if sampling:
        trials = sum(calls[i].trials for i in sampling)
        rates = [trials / sum(p.call_s[i] for i in sampling) for p in passes]
        extra["trials_per_s"] = (statistics.median(rates), "1/s", len(rates))
    return metrics, extra


def per_layer(passes, tracing) -> dict:
    """Per-layer metrics of the traced passes, with the tracing overhead
    measured against the untraced passes of the same run."""
    traced = [p for p in passes if p.traced]
    untraced_wall = statistics.median(p.ref_wall_s for p in passes if not p.traced)
    overhead = statistics.median(p.ref_wall_s for p in traced) / untraced_wall - 1
    layers = tracing.combine([p.layers for p in traced], overhead)
    return {
        name: (layers[name], unit, 1 if unit == "count" else len(traced))
        for name, unit, _better, _moves in tracing.PER_LAYER
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agreelab" / "__init__.py").is_file():
        sys.stderr.write(f"error: no agreelab package under {SRC}\n")
        return 2
    setup = SetupSampler(args.seconds)
    if not args.trace:
        measure_setup(1)  # writes the bytecode caches; not counted
        setup.batch()
    sys.path.insert(0, str(SRC))
    import numpy
    from agreelab import harness

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    passes, traces, first = run_loop(
        workload.calls, args.seconds, bool(args.trace), tracing,
        (lambda elapsed: None) if args.trace else setup.after_pass,
    )
    if not args.trace:
        setup.batch()

    checks = workloads.Checks()
    for i, p in enumerate(passes):
        for call, ok, outcome in zip(workload.calls, p.ok, first):
            detail = outcome.detail if i == 0 and not ok else ""
            checks.add(f"pass {i} {call.key}: completed, exit 0", ok, detail)
        if i:
            kind = "traced" if p.traced else "untraced"
            checks.add(f"pass {i} ({kind}): outputs byte-identical to pass 0", p.digest == passes[0].digest)
    traced = [p for p in passes if p.traced]
    for i, p in enumerate(traced[1:], 1):
        same = all(p.layers[m] == traced[0].layers[m] for m in tracing.COUNT_METRICS)
        checks.add(f"traced pass {i}: counts identical to traced pass 0", same)
    try:
        workload.check({c.key: o for c, o in zip(workload.calls, first)}, workloads.load_expected(), checks)
    except Exception:
        checks.add("workload checks ran to the end", False, traceback.format_exc())

    if args.trace:
        metrics, extra = per_layer(passes, tracing), {}
    else:
        metrics, extra = end_to_end(passes, setup, workload.calls)
    attempted, failed = len(checks.items), checks.failed
    extra["check_fail_frac"] = (failed / attempted, "ratio", attempted)

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "rng_version": harness.RNG_VERSION,
            "commit": git_commit(),
            "src_lines": src_lines(),
        },
        "calls": [call.describe() for call in workload.calls],
        "passes": [
            {"traced": p.traced, "wall_s": p.wall_s, "ref_wall_s": p.ref_wall_s, "call_s": p.call_s,
             "ref_s": p.ref_s, "digest": p.digest}
            for p in passes
        ],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "extra": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in extra.items()},
        "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks.items],
    }
    if not args.trace:
        record["setup_samples_s"] = {"measured": setup.raw, "scaled": setup.samples}
    if args.trace:
        record["layers"] = [
            {"name": n, "unit": u, "better": b, "should_move": m} for n, u, b, m in tracing.PER_LAYER
        ]
        record["traced_passes"] = traces
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}")
    for name, (value, unit, n) in {**metrics, **extra}.items():
        print(f"  {name:46s} {value:>16.6g} {unit:6s} ({n} samples)")
    for name, ok, detail in checks.items:
        if not ok:
            print(f"  FAILED {name} {detail}".rstrip())
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
