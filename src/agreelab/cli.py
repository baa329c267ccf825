"""Command-line interface: simulate, sweep, verify, bound, scenario list.

Each subcommand takes only the flags and config keys of its settings in :data:`COMMANDS`.

Exit codes: 0 success, 1 usage error (a flag, parameter or config file
that cannot be parsed or is out of range, or a file that cannot be read or
written), 2 verification failures present, 3 outcome space exceeds the
exact-engine budget, 4 any other exception: a bug, which :func:`main`
lets propagate and :func:`entry` (the ``agreelab`` script) prints.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from fractions import Fraction

from .bounds import default_eps_grid, learning_bounds, qn_bounds
from .dynamics import NETWORK_BELIEF, PUBLIC_ACTION, PUBLIC_BELIEF, PUBLIC_STATISTIC
from .errors import AgreementLabError, EnumerationBudgetError
from .harness import (
    POOLED,
    RNG_VERSION,
    csv_text,
    default_verification_suite,
    run_monte_carlo,
    sweep_n,
)
from .scenarios import FAMILY_SIGNATURES, SCENARIO_FAMILIES, build_scenario
from .signals import SignalModel, belief_tail_cdf, noise_to_signal_ratio

PROTOCOL_ALIASES = {
    "public-belief": PUBLIC_BELIEF,
    "public-action": PUBLIC_ACTION,
    "statistic": PUBLIC_STATISTIC,
    "public-statistic": PUBLIC_STATISTIC,
    "network": NETWORK_BELIEF,
    "network-belief": NETWORK_BELIEF,
    "pooled": POOLED,
}


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit code 2; this project reserves 2
    for verification failures, so usage errors become exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_scalar(key: str, text: str):
    for caster in (int, Fraction, float):
        try:
            return caster(text)
        except ValueError:
            continue
    raise AgreementLabError(f"--param {key} expects a number, got {text!r}")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise AgreementLabError(f"--param expects key=value, got {pair!r}")
        key, text = pair.split("=", 1)
        out[key.strip()] = _parse_scalar(key.strip(), text.strip())
    return out


def _as_int(value) -> int:
    """``int(value)``, raising on booleans and non-integral floats, which it would truncate."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def _parse_int(key: str, minimum: int, value) -> int:
    try:
        if _as_int(value) >= minimum:
            return _as_int(value)
    except (TypeError, ValueError):
        pass
    raise AgreementLabError(f"{key} expects an integer >= {minimum}, got {value!r}")


def _parse_text(key: str, value):
    if value is None or isinstance(value, str):
        return value
    raise AgreementLabError(f"{key} expects a string, got {value!r}")


def _parse_n_list(text) -> list[int]:
    pieces = text if isinstance(text, (list, tuple)) else str(text).split(",")
    try:
        values = [_as_int(piece) for piece in pieces if str(piece).strip()]
    except (TypeError, ValueError):
        values = []
    if not values or min(values) < 1:
        raise AgreementLabError(f"--n expects positive integers, got {text!r}")
    return values


def _parse_eps_grid(text):
    """LO:HI:POINTS, or (from a config file) a non-empty list of thresholds,
    each a number in (0, 1)."""
    if text is None:
        return None
    try:
        if isinstance(text, (list, tuple)):
            if any(isinstance(v, bool) for v in text):
                raise ValueError("a threshold cannot be a boolean")
            grid = tuple(float(v) for v in text)
            if not grid or not all(0 < eps < 1 for eps in grid):
                raise ValueError("need at least one threshold, each in (0, 1)")
            return grid
        lo, hi, points = str(text).split(":")
        return default_eps_grid(float(lo), float(hi), int(points))
    except (TypeError, ValueError) as exc:
        raise AgreementLabError(
            f"--eps-grid expects LO:HI:POINTS or a list of thresholds, got {text!r}: {exc}"
        ) from None


def _load_config(path) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise AgreementLabError(f"config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise AgreementLabError(f"config {path}: expected a JSON object")
    return config


#: Per setting: its flag, the flag's argparse keywords, and the parser of
#: its value (from the flag, the config file or the default), or None to
#: keep the value as it is.  A ``choices`` keyword also binds config values.
SETTINGS = {
    "scenario": ("--scenario", {"help": "scenario family name"},
                 functools.partial(_parse_text, "scenario")),
    "params": ("--param", {"action": "append", "metavar": "KEY=VALUE",
                           "help": "scenario parameter, repeatable; rationals as num/den"}, None),
    "protocol": ("--protocol", {"choices": sorted(PROTOCOL_ALIASES)}, PROTOCOL_ALIASES.get),
    "n": ("--n", {"help": "agent count (sweep, bound: comma-separated list)"}, _parse_n_list),
    "trials": ("--trials", {"type": int}, functools.partial(_parse_int, "trials", 1)),
    "seed": ("--seed", {"type": int}, functools.partial(_parse_int, "seed", 0)),
    "eps_grid": ("--eps-grid", {"metavar": "LO:HI:POINTS"}, _parse_eps_grid),
    "format": ("--format", {"choices": ("csv", "json")}, None),
    "out": ("--out", {"help": "output path (default: stdout)"},
            functools.partial(_parse_text, "out")),
}

#: The default of a setting that has none: the subcommand needs its flag or key.
REQUIRED = object()


def _settings(args) -> argparse.Namespace:
    """Resolve each setting ``args.command`` reads: its flag, else the config
    key of the same name, else its default.  ``--param`` pairs update the
    config's ``params`` object."""
    config = _load_config(args.config)
    defaults = COMMANDS[args.command][1]
    unknown = [key for key in config if key not in defaults]
    if unknown:
        raise AgreementLabError(
            f"config {args.config}: {args.command} reads no key {', '.join(map(repr, unknown))}; "
            f"it reads {', '.join(defaults)}"
        )
    resolved = argparse.Namespace()
    for key, default in defaults.items():
        flag, spec, parse = SETTINGS[key]
        given = getattr(args, key)
        if key == "params":
            value = config.get(key, default)
            if not isinstance(value, dict):
                raise AgreementLabError(f"params expects a JSON object, got {value!r}")
            value = {**value, **_parse_params(given)}
        else:
            value = config.get(key, default) if given is None else given
        if value is REQUIRED:
            raise AgreementLabError(f"{args.command} needs {flag}")
        choices = spec.get("choices")
        if choices and value is not None and value not in choices:
            raise AgreementLabError(f"unknown {key} {value!r}; choices: {sorted(choices)}")
        setattr(resolved, key, value if parse is None else parse(value))
    return resolved


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_result(settings, result, to_text) -> None:
    """Write ``result`` as JSON or CSV, as the ``format`` setting asks, or
    else as ``to_text()``, called only then, to the ``out`` path or stdout."""
    if settings.format == "json":
        text = json.dumps(asdict(result), indent=2, default=str) + "\n"
    elif settings.format == "csv":
        text = result.to_csv()
    else:
        text = to_text()
    _write_output(text, settings.out)


def _cmd_simulate(s) -> int:
    if len(s.n) > 1:
        raise AgreementLabError(f"simulate runs one n, got {s.n}; use sweep for several")
    scenario = build_scenario(s.scenario, s.n[0], **s.params)
    summary = run_monte_carlo(scenario, s.protocol, s.trials, s.seed)
    _write_result(s, summary, lambda: (
        f"{summary.scenario} mode={summary.mode} trials={summary.trials} "
        f"seed={summary.seed}\n"
        f"  successes={summary.successes} ties={summary.ties} "
        f"failures={summary.failures}\n"
        f"  success_rate={summary.success_rate:.6f} "
        f"(stderr {summary.stderr:.6f}) msbe={summary.msbe:.6g}\n"
    ))
    return 0


def _cmd_sweep(s) -> int:
    table = sweep_n(
        s.scenario, s.n, s.trials, s.seed, mode=s.protocol, params=s.params, eps_grid=s.eps_grid
    )
    _write_result(s, table, table.to_csv)
    return 0


def _cmd_verify(s) -> int:
    report = default_verification_suite(seed=s.seed, trials=s.trials)
    _write_result(s, report, report.to_text)
    return 0 if report.passed else 2


def _cmd_bound(s) -> int:
    """One row per n, at ``--param D`` or else the D of the scenario built
    at that n; with a scenario, its qn bound fills the last column.  Every
    row's scenario is built first, and D and qn are evaluated once per
    distinct marginal model (one ``qn_bounds`` call over its n values)."""
    params = dict(s.params)
    given_d = params.pop("D", None)
    if not s.scenario and (given_d is None or params):
        raise AgreementLabError("bound needs --param D=... or --scenario, and without --scenario "
                                f"it reads only --param D; got {sorted(s.params)}")
    rows_of: dict[SignalModel, list[int]] = {}
    for i, n in enumerate(s.n if s.scenario else ()):
        scenario = build_scenario(s.scenario, n, **params)
        if scenario.marginal_model is None:
            raise AgreementLabError(f"{scenario.name} has no informative marginal model")
        rows_of.setdefault(scenario.marginal_model, []).append(i)
    ds, qns = [given_d] * len(s.n), [None] * len(s.n)
    for model, rows in rows_of.items():
        d = noise_to_signal_ratio(model) if given_d is None else given_d
        tail = belief_tail_cdf(model, 0)
        for i, qn in zip(rows, qn_bounds([s.n[i] for i in rows], tail, eps_grid=s.eps_grid)):
            ds[i], qns[i] = d, qn
    table = []
    for n, d, qn in zip(s.n, ds, qns):
        try:
            if isinstance(d, bool):
                raise TypeError(d)
            d = float(d)
        except (TypeError, ValueError):
            raise AgreementLabError(f"D expects a number, got {d!r}") from None
        if not 0 < d < math.inf:
            raise AgreementLabError(f"D must be positive and finite, got {d!r}")
        report = learning_bounds(n, d)
        table.append((n, report.d, report.var_bound, report.action_bound, qn))
    header = ("n", "D", "var_bound", "action_bound", "qn_bound")
    _write_output(csv_text(f"generator={RNG_VERSION}", header, table), s.out)
    return 0


#: Per subcommand: its function, and the settings it reads with their defaults.
COMMANDS = {
    "simulate": (_cmd_simulate, {
        "scenario": REQUIRED, "params": {}, "protocol": "pooled", "n": 2,
        "trials": 1000, "seed": 0, "format": None, "out": None,
    }),
    "sweep": (_cmd_sweep, {
        "scenario": REQUIRED, "params": {}, "protocol": "pooled", "n": "2,3,4",
        "trials": 1000, "seed": 0, "eps_grid": None, "format": None, "out": None,
    }),
    "verify": (_cmd_verify, {"trials": 20_000, "seed": 20240601, "format": None, "out": None}),
    "bound": (_cmd_bound, {
        "scenario": None, "params": {}, "n": "10,100,1000", "eps_grid": None, "out": None,
    }),
}


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="agreelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in COMMANDS.items():
        command = sub.add_parser(name)
        command.add_argument("--config", help="JSON config file; flags override it")
        for key in defaults:
            flag, spec, _ = SETTINGS[key]
            command.add_argument(flag, dest=key, **spec)
    scenario = sub.add_parser("scenario")
    scenario.add_argument("action", choices=("list",))
    return parser


def _cmd_scenario() -> int:
    for name in sorted(SCENARIO_FAMILIES):
        sys.stdout.write(f"{name:20s} {FAMILY_SIGNATURES[name]}\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "scenario":
            return _cmd_scenario()
        return COMMANDS[args.command][0](_settings(args))
    except EnumerationBudgetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (AgreementLabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry(argv=None):
    """Exit with :func:`main`'s status, or with 4 after printing the
    traceback of an unexpected exception."""
    try:
        sys.exit(main(argv))
    except Exception:
        import traceback  # only on this path, so importing the CLI stays cheap

        traceback.print_exc()
        sys.exit(4)


if __name__ == "__main__":
    entry()
