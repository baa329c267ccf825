"""Command-line interface: simulate, sweep, verify, bound, scenario list.

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
import sys
from fractions import Fraction

from .bounds import default_eps_grid, learning_bounds, qn_bound
from .dynamics import NETWORK_BELIEF, PUBLIC_ACTION, PUBLIC_BELIEF, PUBLIC_STATISTIC
from .errors import AgreementLabError, EnumerationBudgetError
from .harness import (
    POOLED,
    RNG_VERSION,
    default_verification_suite,
    run_monte_carlo,
    sweep_n,
)
from .scenarios import FAMILY_SIGNATURES, SCENARIO_FAMILIES, build_scenario
from .signals import belief_tail_cdf, noise_to_signal_ratio

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
    if text is None:
        return None
    try:
        if isinstance(text, (list, tuple)):
            return tuple(float(v) for v in text)
        lo, hi, points = str(text).split(":")
        return default_eps_grid(float(lo), float(hi), int(points))
    except (TypeError, ValueError) as exc:
        raise AgreementLabError(f"--eps-grid expects LO:HI:POINTS, got {text!r}: {exc}") from None


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


def _setting(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _int_setting(args, config, key, default, minimum) -> int:
    value = _setting(args, config, key, default)
    try:
        if _as_int(value) >= minimum:
            return _as_int(value)
    except (TypeError, ValueError):
        pass
    raise AgreementLabError(f"{key} expects an integer >= {minimum}, got {value!r}")


def _protocol(args, config) -> str:
    name = _setting(args, config, "protocol", "pooled")
    if name not in PROTOCOL_ALIASES:
        raise AgreementLabError(f"unknown protocol {name!r}; choices: {sorted(PROTOCOL_ALIASES)}")
    return PROTOCOL_ALIASES[name]


def _write_output(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_result(args, config, result, csv: str, text: str) -> None:
    """Write ``result`` as JSON, ``csv`` or ``text``, as ``--format`` (or the
    config's ``format``) asks, to ``--out`` or stdout."""
    fmt = _setting(args, config, "fmt", None) or config.get("format")
    if fmt == "json":
        text = json.dumps(result.to_dict(), indent=2, default=str) + "\n"
    elif fmt == "csv":
        text = csv
    _write_output(text, _setting(args, config, "out"))


def _add_common(parser):
    parser.add_argument("--config", help="JSON config file; flags override it")
    parser.add_argument("--scenario", help="scenario family name")
    parser.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="scenario parameter, repeatable; rationals as num/den",
    )
    parser.add_argument("--protocol", choices=sorted(PROTOCOL_ALIASES))
    parser.add_argument("--n", help="agent count (sweep: comma-separated list)")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt")
    parser.add_argument("--eps-grid", dest="eps_grid", metavar="LO:HI:POINTS")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="agreelab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "sweep", "verify", "bound"):
        _add_common(sub.add_parser(name))
    scenario = sub.add_parser("scenario")
    scenario.add_argument("action", choices=("list",))
    return parser


def _summary_csv(summary) -> str:
    from .harness import csv_cell

    header = (
        "scenario,n,mode,trials,successes,ties,failures,"
        "success_rate,stderr,msbe,seed"
    )
    s = summary
    row = (
        f"{csv_cell(s.scenario)},{s.n},{s.mode},{s.trials},{s.successes},{s.ties},"
        f"{s.failures},{s.success_rate!r},{s.stderr!r},{s.msbe!r},{s.seed}"
    )
    return f"# generator={s.rng}\n{header}\n{row}\n"


def _cmd_simulate(args) -> int:
    config = _load_config(args.config)
    name = _setting(args, config, "scenario")
    if not name:
        raise AgreementLabError("simulate needs --scenario")
    params = dict(config.get("params", {}))
    params.update(_parse_params(args.param))
    n_list = _parse_n_list(_setting(args, config, "n", 2))
    if len(n_list) > 1:
        raise AgreementLabError(f"simulate runs one n, got {n_list}; use sweep for several")
    protocol = _protocol(args, config)
    trials = _int_setting(args, config, "trials", 1000, 1)
    seed = _int_setting(args, config, "seed", 0, 0)
    scenario = build_scenario(name, n_list[0], **params)
    summary = run_monte_carlo(scenario, protocol, trials, seed)
    _write_result(
        args, config, summary, _summary_csv(summary),
        f"{summary.scenario} mode={summary.mode} trials={summary.trials} "
        f"seed={summary.seed}\n"
        f"  successes={summary.successes} ties={summary.ties} "
        f"failures={summary.failures}\n"
        f"  success_rate={summary.success_rate:.6f} "
        f"(stderr {summary.stderr:.6f}) msbe={summary.msbe:.6g}\n",
    )
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    name = _setting(args, config, "scenario")
    if not name:
        raise AgreementLabError("sweep needs --scenario")
    params = dict(config.get("params", {}))
    params.update(_parse_params(args.param))
    n_values = _parse_n_list(_setting(args, config, "n", "2,3,4"))
    protocol = _protocol(args, config)
    trials = _int_setting(args, config, "trials", 1000, 1)
    seed = _int_setting(args, config, "seed", 0, 0)
    eps_grid = _parse_eps_grid(_setting(args, config, "eps_grid"))
    table = sweep_n(
        name, n_values, trials, seed, mode=protocol, params=params, eps_grid=eps_grid
    )
    _write_result(args, config, table, table.to_csv(), table.to_csv())
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config)
    seed = _int_setting(args, config, "seed", 20240601, 0)
    trials = _int_setting(args, config, "trials", 20_000, 1)
    report = default_verification_suite(seed=seed, trials=trials)
    _write_result(args, config, report, report.to_csv(), report.to_text())
    return 0 if report.passed else 2


def _cmd_bound(args) -> int:
    config = _load_config(args.config)
    params = dict(config.get("params", {}))
    params.update(_parse_params(args.param))
    n_values = _parse_n_list(_setting(args, config, "n", "10,100,1000"))
    eps_grid = _parse_eps_grid(_setting(args, config, "eps_grid"))
    name = _setting(args, config, "scenario")
    lines = [f"# generator={RNG_VERSION}"]
    d = params.pop("D", params.pop("d", None))
    cdf = None
    if name:
        scenario = build_scenario(name, n_values[0], **params)
        model = scenario.marginal_model
        if model is None:
            raise AgreementLabError(f"{scenario.name} has no informative marginal model")
        if d is None:
            d = noise_to_signal_ratio(model)
        cdf = belief_tail_cdf(model, 0)
    if d is None:
        raise AgreementLabError("bound needs --param D=... or --scenario")
    try:
        d = float(d)
    except (TypeError, ValueError):
        raise AgreementLabError(f"D expects a number, got {d!r}") from None
    if not d > 0:
        raise AgreementLabError(f"D must be positive, got {d!r}")
    lines.append("n,D,var_bound,action_bound,qn_bound")
    for n in n_values:
        report = learning_bounds(n, d)
        qn = ""
        if cdf is not None:
            qn = repr(qn_bound(n, cdf, eps_grid=eps_grid))
        lines.append(
            f"{n},{report.d!r},{report.var_bound!r},{report.action_bound!r},{qn}"
        )
    _write_output("\n".join(lines) + "\n", _setting(args, config, "out"))
    return 0


def _cmd_scenario(args) -> int:
    for name in sorted(SCENARIO_FAMILIES):
        sys.stdout.write(f"{name:20s} {FAMILY_SIGNATURES[name]}\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "bound":
            return _cmd_bound(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        return 1
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
