"""Command-line front end for batch experiments.

Subcommands:
  analytic       expected-length / throughput tables from the recursions
  asymptote      atic's limiting throughput and its optimum over the split bias
  windowed-scan  atic's stable-rate curve over window loads
  simulate       one traffic run, full metrics report as JSON
  sweep          delay statistics over an arrival-rate grid (CSV)
  tree           single-interval resolution tree as a DOT file
  compare        multi-protocol overlay of traffic metrics

A run's settings are its parsed flags (``--outdir`` defaults to
``$TREESPLIT_OUTDIR``).  Each flag is checked as it is parsed, by the
library's own rule for the protocol, policy, rate, split bias, seed and
budget, and by the CLI's for the rest: at least one protocol and none
twice, one report-file tag per rate, and the ranges of table sizes, grid
points, loads and user counts.  A bad value is reported against its flag
as typed.  Stochastic commands require an explicit seed; analytic
commands do not.  Every command runs at the fair coin, p = 1/2, and
simulations at the library's 256-bit packets.  An artifact's header
hashes every flag its command parsed except ``--outdir``.

Exit codes: 0 ok, 1 usage error, 2 output/io error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .analytics import (
    asymptotic_throughput,
    cri_table_rows,
    windowed_stable_rate,
    CriLengthTable,
)
from .engines import _rules, _split_bias, export_tree, run_cri
from .reports import IoError, emit_report, provenance_header, write_text
from .rng import CoinSource, _integer, derive_seed
from .sim import EmptySampleError, _P, _rate, _window_length, delay_stats, simulate

ENV_OUTDIR = "TREESPLIT_OUTDIR"

_DEFAULT_BUDGET = 100_000
# Most points a start:stop:step grid may expand to.
_GRID_MAX_POINTS = 100_000


def rate_tag(lam: float) -> str:
    """The rate as report file names carry it: six significant digits."""
    return format(lam, "g").replace(".", "p")


class UsageError(ValueError):
    """A flag is missing, unknown, or holds a value its rule refuses."""


def parse_grid(text: str) -> tuple[float, ...]:
    """Parse ``start:stop:step`` (inclusive stop, within half a step) or a
    comma-separated list into a tuple of floats; ValueError otherwise."""
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(x) for x in parts)
        except ValueError:
            raise ValueError(f"non-numeric bound in {text!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"non-finite bound in {text!r}")
        if step <= 0:
            raise ValueError(f"step must be > 0, got {step}")
        if stop < start:
            raise ValueError(f"stop {stop} below start {start}")
        count = (stop - start) / step + 0.5
        if not count < _GRID_MAX_POINTS:
            raise ValueError(f"{text!r} spans more than {_GRID_MAX_POINTS} points")
        values = tuple(start + i * step for i in range(int(count) + 1))
        return tuple(v for v in values if v <= stop + step * 1e-9)
    try:
        values = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"non-numeric entry in {text!r}") from None
    if not values:
        raise ValueError("empty grid")
    return values


# ---------------------------------------------------------------- flag rules


def _flag(rule):
    """An argparse ``type`` that runs ``rule`` on a flag's text; argparse
    reports the rule's ValueError against the flag, message kept."""
    def parse(text):
        try:
            return rule(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _text(check):
    """A rule that runs ``check`` on a flag's text and keeps the text."""
    def rule(text):
        check(text)
        return text
    return rule


def _protocols(text: str) -> tuple[str, ...]:
    """A comma list of protocol names: at least one, none twice."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise ValueError("at least one protocol required")
    for name in names:
        _rules(name)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated protocol in {names}")
    return names


def _rates(text: str) -> tuple[float, ...]:
    """An arrival-rate grid whose rates have distinct report-file tags
    (equal tags would name one report file twice; equal rates have them)."""
    rates = tuple(map(_rate, parse_grid(text)))
    if len({rate_tag(lam) for lam in rates}) != len(rates):
        raise ValueError(f"rates {rates} repeat a file tag (six significant digits)")
    return rates


def _count(name: str, least: int):
    """The rule for an integer from ``least`` to ``_GRID_MAX_POINTS``: a
    table row count, a grid's points or a tree's users."""
    def rule(text):
        value = int(text)
        if not least <= value <= _GRID_MAX_POINTS:
            raise ValueError(f"need {least} <= {name} <= {_GRID_MAX_POINTS}, got {value}")
        return value
    return rule


def _load(text: str) -> float:
    """A window load.  The length table grows to about the largest load in
    rows, so a load is bounded as a row count is."""
    value = float(text)
    if not 0 < value <= _GRID_MAX_POINTS:
        raise ValueError(f"load must be positive, finite and at most {_GRID_MAX_POINTS}, "
                         f"got {value}")
    return value


def _bias_grid(text: str) -> tuple[float, ...]:
    """A grid of split biases, each checked by the engines' rule."""
    grid = parse_grid(text)
    for p in grid:
        _split_bias(p)
    return grid


def _parse_script(text: str) -> tuple:
    """Parse '1:0=l,4:0=r' into ``((uid, depth), goes_left)`` pairs, sorted
    by key and a key's last entry kept: one form per set of splits, which
    the header hashes, as JSON cannot encode tuple keys."""
    script = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            key, _, side = item.partition("=")
            uid_text, _, depth_text = key.partition(":")
            uid, depth = int(uid_text), int(depth_text)
            side = side.strip().lower()
            if side not in ("l", "r", "left", "right"):
                raise ValueError(side)
        except ValueError:
            raise ValueError(f"bad entry {item!r}; want uid:depth=l|r") from None
        script[(uid, depth)] = side.startswith("l")
    return tuple(sorted(script.items()))


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as UsageError (exit 1) and
    takes a long flag only as spelled in full."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="treesplit", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="command", required=True)
    protocol = _flag(_text(_rules))
    protocols = _flag(_protocols)
    seed = _flag(lambda text: _integer(int(text), "seed", 0))

    def command(name, handler, help):
        sp = subs.add_parser(name, help=help)
        sp.add_argument("--outdir", default=os.environ.get(ENV_OUTDIR, "."),
                        help="output directory (default: $TREESPLIT_OUTDIR or .)")
        sp.set_defaults(handler=handler)
        return sp

    def traffic(name, handler, help):
        sp = command(name, handler, help)
        sp.add_argument("--seed", type=seed, required=True, help="master seed (required)")
        sp.add_argument("--budget", type=_flag(lambda text: _integer(int(text), "budget", 1)),
                        default=_DEFAULT_BUDGET, help="slot budget per run")
        sp.add_argument("--policy", type=_flag(_text(_window_length)), default="gated",
                        help="access policy: gated or windowed:<delta>")
        sp.add_argument("--rates", type=_flag(_rates), required=True,
                        metavar="START:STOP:STEP", help="arrival-rate grid or comma list")
        return sp

    sp = command("analytic", _cmd_analytic, "emit n, L_n, T_n tables")
    sp.add_argument("--protocols", type=protocols, default=("atic",),
                    help="comma list of protocols")
    sp.add_argument("--n-max", type=_flag(_count("n_max", 1)), default=24)

    sp = command("asymptote", _cmd_asymptote, "limiting throughput and optimum split bias")
    sp.add_argument("--p-grid", type=_flag(_bias_grid), default="0.40:0.60:0.005",
                    help="grid start:stop:step for the argmax scan")

    sp = command("windowed-scan", _cmd_windowed_scan,
                 "stable arrival rate as a function of window load")
    sp.add_argument("--load-min", type=_flag(_load), default=0.1)
    sp.add_argument("--load-max", type=_flag(_load), default=1e4)
    sp.add_argument("--points", type=_flag(_count("points", 2)), default=241)

    sp = traffic("simulate", _cmd_simulate, "run one protocol under traffic, emit metrics JSON")
    sp.add_argument("--protocol", type=protocol, default="atic", help="protocol name")

    sp = traffic("sweep", _cmd_sweep, "delay statistics over an arrival-rate grid")
    sp.add_argument("--protocols", type=protocols, default=("atic",),
                    help="comma list of protocols")

    sp = command("tree", _cmd_tree, "resolve one interval and export its tree as DOT")
    sp.add_argument("--protocol", type=protocol, default="atic",
                    help="protocol name (default: atic)")
    sp.add_argument("--users", type=_flag(_count("users", 0)), default=4)
    sp.add_argument("--seed", type=seed, required=True, help="coin seed (required)")
    sp.add_argument("--script", type=_flag(_parse_script),
                    help="forced splits, e.g. '1:0=l,4:0=r'")

    sp = traffic("compare", _cmd_compare, "overlay metrics for several protocols")
    sp.add_argument("--protocols", type=protocols, default=("atic",),
                    help="comma list of protocols")

    return parser


def _hashed(args) -> dict:
    """The settings an artifact's header hashes: every flag the command
    parsed, and its name.  The output directory is left out: it changes
    where artifacts land, never what they contain, and identical runs
    should hash alike."""
    return {name: value for name, value in vars(args).items()
            if name not in ("outdir", "handler")}


def _outpath(args, name: str) -> str:
    return os.path.join(args.outdir, name)


def _policy_tag(policy: str) -> str:
    return policy.replace(":", "-").replace(".", "p")


# ---------------------------------------------------------------- commands


def _cmd_analytic(args, config: dict) -> int:
    for proto in args.protocols:
        rows = [
            {"n": n, "L_n": length, "T_n": thr}
            for n, length, thr in cri_table_rows(args.n_max, _P, proto)
        ]
        path = emit_report(rows, _outpath(args, f"analytic_{proto}.csv"), config=config)
        print(f"analytic {proto} p={_P:g} n_max={args.n_max}: wrote {path}")
    return 0


def _cmd_asymptote(args, config: dict) -> int:
    value_here = asymptotic_throughput(_P)
    scan = [(p, asymptotic_throughput(p)) for p in args.p_grid]
    best_p, best_val = max(scan, key=lambda item: item[1])
    payload = {
        "p": _P,
        "throughput": value_here,
        "argmax_p": best_p,
        "argmax_throughput": best_val,
        "grid_points": len(scan),
    }
    path = emit_report(payload, _outpath(args, "asymptote.json"), config=config)
    print(f"asymptote p={_P:g}: {value_here:.10f} "
          f"(argmax p={best_p:g} -> {best_val:.10f}); wrote {path}")
    return 0


def _cmd_windowed_scan(args, config: dict) -> int:
    if not args.load_min < args.load_max:
        raise UsageError(f"argument --load-min: need load_min < load_max, "
                         f"got {args.load_min:g} and {args.load_max:g}")
    table = CriLengthTable(_P, "atic")
    loads = np.geomspace(args.load_min, args.load_max, args.points)
    rows = [
        {"load": float(x), "stable_rate": windowed_stable_rate(float(x), table)}
        for x in loads
    ]
    best = max(rows, key=lambda r: r["stable_rate"])
    path = emit_report(rows, _outpath(args, "windowed_scan.csv"), config=config)
    print(f"windowed-scan p={_P:g} [{args.load_min:g},{args.load_max:g}] "
          f"n={args.points}: best rate {best['stable_rate']:.9f} "
          f"at load {best['load']:.6g}; wrote {path}")
    return 0


def _grid_runs(args):
    """Yield ``(protocol, rate, run_seed, report)`` for every protocol and
    rate of the grid, each run seeded by (seed, protocol, rate index)."""
    for proto in args.protocols:
        for idx, lam in enumerate(args.rates):
            run_seed = derive_seed(args.seed, proto, idx)
            yield proto, lam, run_seed, simulate(proto, args.policy, lam, args.budget, run_seed)


def _report_name(proto: str, policy: str, lam: float) -> str:
    return f"sim_{proto}_{_policy_tag(policy)}_{rate_tag(lam)}.json"


def _cmd_simulate(args, config: dict) -> int:
    proto, seed = args.protocol, args.seed
    for lam in args.rates:
        report = simulate(proto, args.policy, lam, args.budget, seed)
        path = emit_report(report.to_dict(), _outpath(args, _report_name(proto, args.policy, lam)),
                           seed=seed, config=config)
        try:
            mean_delay = f"{delay_stats(report).mean:.4g}"
        except EmptySampleError:
            mean_delay = "n/a"
        print(f"simulate {proto} {args.policy} rate={lam:g} seed={seed} "
              f"budget={args.budget}: thr={report.throughput:.4f} "
              f"delay={mean_delay} unstable={report.unstable}; wrote {path}")
    return 0


def _delay_row(proto: str, lam: float, report) -> dict:
    try:
        st = delay_stats(report)
        return {
            "lambda": lam, "protocol": proto, "mean": st.mean,
            "var": st.variance, "p50": st.percentiles[50],
            "p95": st.percentiles[95], "n_samples": len(report.delay_samples),
        }
    except EmptySampleError:
        nan = math.nan
        return {"lambda": lam, "protocol": proto, "mean": nan, "var": nan,
                "p50": nan, "p95": nan, "n_samples": 0}


def _cmd_sweep(args, config: dict) -> int:
    rows = [_delay_row(proto, lam, report) for proto, lam, _, report in _grid_runs(args)]
    path = emit_report(rows, _outpath(args, "delay.csv"), seed=args.seed, config=config)
    print(f"sweep {','.join(args.protocols)} {args.policy} "
          f"{len(args.rates)} rates x budget={args.budget}: wrote {path}")
    return 0


def _cmd_tree(args, config: dict) -> int:
    proto, seed = args.protocol, args.seed
    coins = CoinSource(seed, _P, dict(args.script)) if args.script else seed
    trace = run_cri(proto, range(1, args.users + 1), _P, coins, record=True)
    dot = export_tree(trace)
    path = _outpath(args, f"tree_{proto}_n{args.users}.dot")
    write_text(path, provenance_header("//", seed, config) + dot)
    solid = sum(1 for node in trace.nodes if node.style == "slot")
    dashed = len(trace.nodes) - solid
    print(f"tree {proto} n={args.users} seed={seed}: length={trace.length} "
          f"({solid} transmitted, {dashed} skipped nodes); wrote {path}")
    return 0


_COMPARE_SCALARS = (
    "protocol", "policy", "rate", "budget", "seed", "slots_simulated",
    "cri_count", "packets_decoded", "arrivals_total", "terminal_backlog",
    "throughput", "unstable", "idle_slots", "success_slots",
    "collision_slots", "z_broadcast_slots", "skipped_slots", "feedback_bits",
)


def _cmd_compare(args, config: dict) -> int:
    rows = []
    for proto, lam, run_seed, report in _grid_runs(args):
        payload = report.to_dict()
        emit_report(payload, _outpath(args, _report_name(proto, args.policy, lam)),
                    seed=run_seed, config=config)
        row = {key: payload[key] for key in _COMPARE_SCALARS}
        row["ap_memory_peak"] = max(report.ap_memory_highwater, default=0)
        row.update({k: v for k, v in _delay_row(proto, lam, report).items()
                    if k not in ("lambda", "protocol")})
        rows.append(row)
    path = emit_report(rows, _outpath(args, "compare.csv"), seed=args.seed, config=config)
    print(f"compare {','.join(args.protocols)} {args.policy} "
          f"{len(args.rates)} rate(s): wrote {path} and per-run JSON")
    return 0


# ---------------------------------------------------------------- entry


def entrypoint(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, _hashed(args))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
