"""Spans and counters around agreelab's public functions, installed from outside.

``Tracer.install`` rebinds each traced function under every name a caller
looks it up by: the defining module, the modules that imported it with
``from .x import name``, the package namespace, and class attributes for
methods.  The library itself is not edited, and ``uninstall`` puts every
original back.

Coarse calls become spans (name, start, end, parent) kept in memory.  Hot
closures called per trial or per profile (``trial_rng``, the samplers'
draws, belief lookups, tail cdf evaluations) are aggregated into a call
count and a total time, charged to the enclosing span so self times stay
right.
"""

from __future__ import annotations

import functools
import math
import statistics
from collections import defaultdict
from time import perf_counter

import agreelab
from agreelab import bounds, cli, dynamics, harness, knowledge, scenarios, signals
from agreelab.knowledge import Partition
from agreelab.scenarios import Scenario

MODULES = (agreelab, bounds, cli, dynamics, harness, knowledge, scenarios, signals)

# Layer groups whose share of the traced wall time shows a workload's intent.
SAMPLING = "sampling"
EXACT_ENGINE = "exact_engine"
COUNT_LAWS = "count_laws"
GROUP_OF = {
    "harness.trial_rng": SAMPLING,
    "scenarios.pooled_draw": SAMPLING,
    "scenarios.profile_draw": SAMPLING,
    "knowledge.outcome_space": EXACT_ENGINE,
    "knowledge.refine_by_key": EXACT_ENGINE,
    "knowledge.belief_function": EXACT_ENGINE,
    "knowledge.belief_lookup": EXACT_ENGINE,
    "knowledge.action_function": EXACT_ENGINE,
    "dynamics.fixed_point_partitions": EXACT_ENGINE,
    "harness.exact_pooled_summary": COUNT_LAWS,
    "harness.senate_exact_summary": COUNT_LAWS,
    "bounds.estimator_moments_by_counts": COUNT_LAWS,
}

# Per-layer metrics: (name, unit, better, what it should move).  Counts are
# per pass and repeat exactly for a given seed; times are medians over the
# traced passes.
PER_LAYER = (
    ("harness.trial_rng.calls", "count", "lower", "trials_per_s, ref_wall_s on monte_carlo; none on exact_laws"),
    ("harness.trial_rng.s", "s", "lower", "trials_per_s, ref_wall_s on monte_carlo; none on exact_laws"),
    ("harness.run_monte_carlo.calls", "count", "lower", "ref_wall_s on fixed_points, trials_per_s on monte_carlo"),
    ("harness.run_monte_carlo.s", "s", "lower", "ref_wall_s on fixed_points, trials_per_s on monte_carlo"),
    ("harness.run_monte_carlo.self_s", "s", "lower", "ref_wall_s on fixed_points, trials_per_s on monte_carlo"),
    ("harness.run_monte_carlo.trials", "count", "higher", "trials_per_s on monte_carlo"),
    ("harness.ties", "count", "lower", "trials_per_s on monte_carlo (exact-tie fallbacks)"),
    ("harness.exact_pooled_summary.calls", "count", "lower", "ref_wall_s on exact_laws, little on monte_carlo"),
    ("harness.exact_pooled_summary.s", "s", "lower", "ref_wall_s on exact_laws, little on monte_carlo"),
    ("harness.exact_pooled_summary.count_vectors", "count", "lower", "ref_wall_s on exact_laws"),
    ("harness.senate_exact_summary.s", "s", "lower", "ref_wall_s on exact_laws"),
    ("harness.default_verification_suite.s", "s", "lower", "ref_wall_s on monte_carlo"),
    ("scenarios.pooled_draw.calls", "count", "lower", "trials_per_s on monte_carlo"),
    ("scenarios.pooled_draw.s", "s", "lower", "trials_per_s on monte_carlo"),
    ("scenarios.profile_draw.calls", "count", "lower", "ref_wall_s on fixed_points (small), trials_per_s on monte_carlo"),
    ("scenarios.profile_draw.s", "s", "lower", "ref_wall_s on fixed_points (small), trials_per_s on monte_carlo"),
    ("knowledge.outcome_space.calls", "count", "lower", "ref_wall_s, peak_rss_mb on fixed_points"),
    ("knowledge.outcome_space.s", "s", "lower", "ref_wall_s, peak_rss_mb on fixed_points"),
    ("knowledge.outcome_space.pairs", "count", "lower", "ref_wall_s, peak_rss_mb on fixed_points"),
    ("knowledge.refine_by_key.calls", "count", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.refine_by_key.s", "s", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.belief_function.calls", "count", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.belief_function.s", "s", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.belief_lookup.calls", "count", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.belief_lookup.s", "s", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.action_function.calls", "count", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("knowledge.action_function.s", "s", "lower", "ref_wall_s on fixed_points; none on exact_laws"),
    ("dynamics.fixed_point_partitions.calls", "count", "lower", "ref_wall_s on fixed_points"),
    ("dynamics.fixed_point_partitions.s", "s", "lower", "ref_wall_s on fixed_points"),
    ("dynamics.fixed_point_partitions.rounds", "count", "lower", "ref_wall_s on fixed_points"),
    ("dynamics.fixed_point_partitions.final_blocks", "count", "lower", "ref_wall_s, peak_rss_mb on fixed_points"),
    ("dynamics.round_s", "s", "lower", "ref_wall_s on fixed_points"),
    ("bounds.qn_bound.calls", "count", "lower", "ref_wall_s on exact_laws and monte_carlo"),
    ("bounds.qn_bound.s", "s", "lower", "ref_wall_s on exact_laws and monte_carlo"),
    ("bounds.estimator_moments_by_counts.s", "s", "lower", "ref_wall_s on exact_laws"),
    ("signals.belief_tail_cdf.evals", "count", "lower", "ref_wall_s on monte_carlo and exact_laws"),
    ("signals.belief_tail_cdf.s", "s", "lower", "ref_wall_s on monte_carlo and exact_laws"),
    ("cli.main.calls", "count", "lower", "ref_wall_s on monte_carlo"),
    ("cli.main.s", "s", "lower", "ref_wall_s on monte_carlo"),
    ("cli.main.self_s", "s", "lower", "ref_wall_s on monte_carlo"),
    ("share.sampling", "ratio", "lower", "time in trial_rng and draws over traced wall; most of it on monte_carlo"),
    ("share.exact_engine", "ratio", "lower", "time in knowledge/dynamics over traced wall; most of it on fixed_points"),
    ("share.count_laws", "ratio", "lower", "time in count-vector laws over traced wall; most of it on exact_laws"),
    ("trace_overhead_frac", "ratio", "lower", "traced ref_wall_s over untraced ref_wall_s, minus 1"),
)

COUNT_METRICS = tuple(name for name, unit, _, _ in PER_LAYER if unit == "count")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child_s")

    def __init__(self, span_id, name, parent):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self, origin: float) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "parent": self.parent,
            "start": self.start - origin,
            "end": self.end - origin,
            "self_s": self.duration - self.child_s,
        }


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.hot: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.group_s: dict[str, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._group_depth: dict[str, int] = defaultdict(int)
        self._group_start: dict[str, float] = {}
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> Span:
        span = Span(len(self.spans), name, self._stack[-1].id if self._stack else None)
        self.spans.append(span)
        self._stack.append(span)
        span.start = perf_counter()
        group = GROUP_OF.get(name)
        if group is not None:
            if not self._group_depth[group]:
                self._group_start[group] = span.start
            self._group_depth[group] += 1
        return span

    def _exit(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.duration
        group = GROUP_OF.get(span.name)
        if group is not None:
            self._group_depth[group] -= 1
            if not self._group_depth[group]:
                self.group_s[group] += span.end - self._group_start[group]

    def span(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(tracer, args, kwargs, result)``
        counts work from the arguments or result and may replace the result."""

        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            return result if after is None else after(self, args, kwargs, result)

        return functools.update_wrapper(traced, fn)

    def hot_closure(self, name: str, fn):
        """Aggregate calls of a closure invoked per trial or per profile."""
        stat = self.hot.setdefault(name, [0, 0.0])
        stack = self._stack
        group = GROUP_OF.get(name)
        depth = self._group_depth
        group_s = self.group_s

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stat[0] += 1
                stat[1] += dt
                if stack:
                    stack[-1].child_s += dt
                if group is not None and not depth[group]:
                    group_s[group] += dt

        return functools.update_wrapper(timed, fn)

    def wrapping_result(self, name: str, factory):
        """Wrap a factory so the closure it returns is a hot closure."""

        def make(*args, **kwargs):
            return self.hot_closure(name, factory(*args, **kwargs))

        return functools.update_wrapper(make, factory)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _rebind_method(self, cls, attr: str, make) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def install(self) -> None:
        def count_trials(tracer, args, kwargs, summary):
            tracer.counts["harness.run_monte_carlo.trials"] += summary.trials
            tracer.counts["harness.ties"] += summary.ties
            return summary

        def count_vectors(tracer, args, kwargs, summary):
            model, n = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "n")
            bins = len(model.support)
            tracer.counts["harness.exact_pooled_summary.count_vectors"] += math.comb(
                n + bins - 1, bins - 1
            )
            return summary

        def count_pairs(tracer, args, kwargs, space):
            tracer.counts["knowledge.outcome_space.pairs"] += len(space)
            return space

        def count_rounds(tracer, args, kwargs, result):
            final, trace = result
            tracer.counts["dynamics.fixed_point_partitions.rounds"] += len(trace.rounds)
            tracer.counts["dynamics.fixed_point_partitions.final_blocks"] += sum(
                p.block_count for p in final
            )
            return result

        def lookups(tracer, args, kwargs, belief):
            return tracer.hot_closure("knowledge.belief_lookup", belief)

        spans = (
            (harness.run_monte_carlo, "harness.run_monte_carlo", count_trials),
            (harness.exact_pooled_summary, "harness.exact_pooled_summary", count_vectors),
            (harness.senate_exact_summary, "harness.senate_exact_summary", None),
            (harness.default_verification_suite, "harness.default_verification_suite", None),
            (knowledge.belief_function, "knowledge.belief_function", lookups),
            (knowledge.action_function, "knowledge.action_function", None),
            (dynamics.fixed_point_partitions, "dynamics.fixed_point_partitions", count_rounds),
            (bounds.qn_bound, "bounds.qn_bound", None),
            (bounds.estimator_moments_by_counts, "bounds.estimator_moments_by_counts", None),
            (cli.main, "cli.main", None),
        )
        for fn, name, after in spans:
            self._rebind(fn, self.span(name, fn, after))
        self._rebind(harness.trial_rng, self.hot_closure("harness.trial_rng", harness.trial_rng))
        self._rebind(
            signals.belief_tail_cdf,
            self.wrapping_result("signals.belief_tail_cdf", signals.belief_tail_cdf),
        )
        self._rebind_method(
            Partition, "refine_by_key", lambda f: self.span("knowledge.refine_by_key", f)
        )
        self._rebind_method(
            Scenario,
            "outcome_space",
            lambda f: self.span("knowledge.outcome_space", f, count_pairs),
        )
        self._rebind_method(
            Scenario, "pooled_sampler", lambda f: self.wrapping_result("scenarios.pooled_draw", f)
        )
        self._rebind_method(
            Scenario, "profile_sampler", lambda f: self.wrapping_result("scenarios.profile_draw", f)
        )

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of this pass (``trace_overhead_frac`` excluded)."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            total[span.name] += span.duration
            own[span.name] += span.duration - span.child_s
        for name, (n_calls, seconds) in self.hot.items():
            calls[name] += n_calls
            total[name] += seconds
        out: dict[str, float] = {}
        for name, _unit, _better, _moves in PER_LAYER:
            layer, _, field = name.rpartition(".")
            if field in ("calls", "evals"):
                out[name] = calls[layer]
            elif field == "s":
                out[name] = total[layer]
            elif field == "self_s":
                out[name] = own[layer]
            elif name in COUNT_METRICS:
                out[name] = self.counts[name]
        rounds = out["dynamics.fixed_point_partitions.rounds"]
        out["dynamics.round_s"] = (
            out["dynamics.fixed_point_partitions.s"] / rounds if rounds else 0.0
        )
        for group in (SAMPLING, EXACT_ENGINE, COUNT_LAWS):
            out[f"share.{group}"] = self.group_s[group] / wall_s
        return out

    def dump(self) -> dict:
        return {
            "spans": [span.to_dict(self.origin) for span in self.spans],
            "hot": {name: {"calls": c, "s": s} for name, (c, s) in self.hot.items()},
            "counts": dict(self.counts),
        }


def combine(passes: list[dict[str, float]], overhead: float) -> dict[str, float]:
    """Counts from the first traced pass, times as medians over traced passes."""
    out = {}
    for name, unit, _better, _moves in PER_LAYER:
        if name == "trace_overhead_frac":
            out[name] = overhead
        elif unit == "count":
            out[name] = passes[0][name]
        else:
            out[name] = statistics.median(p[name] for p in passes)
    return out
