"""Command-line front end for batch experiments.

Subcommands:
  analytic       expected-length / throughput tables from the recursions
  asymptote      atic's limiting throughput and its optimum over the split bias
  windowed-scan  atic's stable-rate curve over window loads
  simulate       one traffic run, full metrics report as JSON
  sweep          delay statistics over an arrival-rate grid (CSV)
  tree           single-interval resolution tree as a DOT file
  compare        multi-protocol overlay of traffic metrics

Exit codes: 0 ok, 1 config error, 2 output/io error.  Stochastic
commands require an explicit seed; analytic commands do not.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .analytics import (
    asymptotic_throughput,
    cri_table_rows,
    windowed_stable_rate,
    CriLengthTable,
)
from .config import (
    _GRID_MAX_POINTS,
    ConfigError,
    ExperimentConfig,
    _FIELD_NAMES,
    parse_grid,
    rate_tag,
)
from .engines import _split_bias, export_tree, run_cri
from .reports import IoError, emit_report, provenance_header, write_text
from .rng import CoinSource, derive_seed
from .sim import EmptySampleError, delay_stats, simulate


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError (exit 1)."""

    def error(self, message):
        raise ConfigError("argv", message)


def _add_common(sub):
    sub.add_argument("--outdir", help="output directory (default: $TREESPLIT_OUTDIR or .)")
    sub.add_argument("--p", type=float, help="split bias towards the left group")


def _add_stochastic(sub):
    sub.add_argument("--seed", type=int, help="master seed (required)")
    sub.add_argument("--budget", type=int, help="slot budget per run")
    sub.add_argument("--policy", help="access policy: gated or windowed:<delta>")
    sub.add_argument("--bits", type=int, dest="packet_bits", help="packet payload bits")


def build_parser() -> _Parser:
    parser = _Parser(prog="treesplit", description=__doc__)
    subs = parser.add_subparsers(dest="command", metavar="command",
                                 parser_class=_Parser)

    sp = subs.add_parser("analytic",
                         help="emit n, L_n, T_n tables")
    _add_common(sp)
    sp.add_argument("--protocols", help="comma list of protocols")
    sp.add_argument("--n-max", type=int, default=24, dest="n_max")
    sp.set_defaults(handler=_cmd_analytic)

    sp = subs.add_parser("asymptote",
                         help="limiting throughput and optimum split bias")
    _add_common(sp)
    sp.add_argument("--p-grid", dest="p_grid", default="0.40:0.60:0.005",
                    help="grid start:stop:step for the argmax scan")
    sp.set_defaults(handler=_cmd_asymptote)

    sp = subs.add_parser("windowed-scan",
                         help="stable arrival rate as a function of window load")
    _add_common(sp)
    sp.add_argument("--load-min", type=float, default=0.1)
    sp.add_argument("--load-max", type=float, default=1e4)
    sp.add_argument("--points", type=int, default=241)
    sp.set_defaults(handler=_cmd_windowed_scan)

    sp = subs.add_parser("simulate",
                         help="run one protocol under traffic, emit metrics JSON")
    _add_common(sp)
    _add_stochastic(sp)
    sp.add_argument("--protocol", help="protocol name")
    sp.add_argument("--rates", dest="rates", help="arrival-rate grid or comma list")
    sp.set_defaults(handler=_cmd_simulate)

    sp = subs.add_parser("sweep",
                         help="delay statistics over an arrival-rate grid")
    _add_common(sp)
    _add_stochastic(sp)
    sp.add_argument("--protocols", help="comma list of protocols")
    sp.add_argument("--rates", dest="rates", metavar="START:STOP:STEP",
                    help="arrival-rate grid or comma list")
    sp.set_defaults(handler=_cmd_sweep)

    sp = subs.add_parser("tree",
                         help="resolve one interval and export its tree as DOT")
    _add_common(sp)
    sp.add_argument("--protocol",
                    help="protocol name (default: atic)")
    sp.add_argument("--users", type=int, default=4)
    sp.add_argument("--seed", type=int, help="coin seed (required)")
    sp.add_argument("--script", help="forced splits, e.g. '1:0=l,4:0=r'")
    sp.set_defaults(handler=_cmd_tree)

    sp = subs.add_parser("compare",
                         help="overlay metrics for several protocols")
    _add_common(sp)
    _add_stochastic(sp)
    sp.add_argument("--protocols", help="comma list of protocols")
    sp.add_argument("--rates", dest="rates", help="arrival-rate grid or comma list")
    sp.set_defaults(handler=_cmd_compare)

    return parser


def _config(args) -> ExperimentConfig:
    """The defaults under every given flag that names a config field,
    checked by ``validate()``.  The one name of ``--protocol`` or the
    comma list ``--protocols`` gives ``protocols``, and ``--rates`` is
    read by :func:`parse_grid`."""
    settings = {name: value for name, value in vars(args).items()
                if name in _FIELD_NAMES and value is not None}
    if getattr(args, "protocol", None) is not None:
        settings["protocols"] = (args.protocol,)
    elif "protocols" in settings:
        settings["protocols"] = tuple(
            name.strip() for name in settings["protocols"].split(",") if name.strip())
    if "rates" in settings:
        settings["rates"] = parse_grid(settings["rates"], "rates")
    return ExperimentConfig(**settings).validate()


def _hashable(cfg: ExperimentConfig) -> dict:
    """Config view used for provenance hashing.

    The output directory is excluded: it changes where artifacts land,
    never what they contain, and identical runs should hash alike.
    """
    payload = asdict(cfg)
    payload.pop("outdir", None)
    return payload


def _outpath(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.outdir, name)


def _policy_tag(policy: str) -> str:
    return policy.replace(":", "-").replace(".", "p")


def _require_rates(cfg: ExperimentConfig, command: str) -> None:
    if not cfg.rates:
        raise ConfigError("rates", f"{command} needs an arrival rate (--rates)")


# ---------------------------------------------------------------- commands


def _cmd_analytic(args, cfg: ExperimentConfig) -> int:
    if not 1 <= args.n_max <= _GRID_MAX_POINTS:
        raise ConfigError("n_max", f"need 1 <= n_max <= {_GRID_MAX_POINTS}, got {args.n_max}")
    for proto in cfg.protocols:
        rows = [
            {"n": n, "L_n": length, "T_n": thr}
            for n, length, thr in cri_table_rows(args.n_max, cfg.p, proto)
        ]
        path = _outpath(cfg, f"analytic_{proto}.csv")
        emit_report(rows, "csv", path, seed=cfg.seed, config=_hashable(cfg))
        print(f"analytic {proto} p={cfg.p:g} n_max={args.n_max}: wrote {path}")
    return 0


def _cmd_asymptote(args, cfg: ExperimentConfig) -> int:
    grid = parse_grid(args.p_grid, "p_grid")
    for value in grid:
        try:
            _split_bias(value)
        except ValueError as exc:
            raise ConfigError("p_grid", str(exc)) from None
    value_here = asymptotic_throughput(cfg.p)
    scan = [(p, asymptotic_throughput(p)) for p in grid]
    best_p, best_val = max(scan, key=lambda item: item[1])
    payload = {
        "p": cfg.p,
        "throughput": value_here,
        "argmax_p": best_p,
        "argmax_throughput": best_val,
        "grid_points": len(scan),
    }
    path = _outpath(cfg, "asymptote.json")
    emit_report(payload, "json", path, seed=cfg.seed, config=_hashable(cfg))
    print(f"asymptote p={cfg.p:g}: {value_here:.10f} "
          f"(argmax p={best_p:g} -> {best_val:.10f}); wrote {path}")
    return 0


def _cmd_windowed_scan(args, cfg: ExperimentConfig) -> int:
    # The length table grows to about the largest load in rows, so a load
    # is bounded as a row count is.
    for name in ("load_min", "load_max"):
        value = getattr(args, name)
        if not value <= _GRID_MAX_POINTS:
            raise ConfigError(name, f"load must be finite and at most {_GRID_MAX_POINTS}, "
                              f"got {value}")
    if args.load_min <= 0 or args.load_max <= args.load_min:
        raise ConfigError("load_min", "need 0 < load_min < load_max")
    if not 2 <= args.points <= _GRID_MAX_POINTS:
        raise ConfigError("points", f"need 2 to {_GRID_MAX_POINTS} grid points, got {args.points}")
    table = CriLengthTable(cfg.p, "atic")
    loads = np.geomspace(args.load_min, args.load_max, args.points)
    rows = [
        {"load": float(x), "stable_rate": windowed_stable_rate(float(x), table)}
        for x in loads
    ]
    best = max(rows, key=lambda r: r["stable_rate"])
    path = _outpath(cfg, "windowed_scan.csv")
    emit_report(rows, "csv", path, seed=cfg.seed, config=_hashable(cfg))
    print(f"windowed-scan p={cfg.p:g} [{args.load_min:g},{args.load_max:g}] "
          f"n={args.points}: best rate {best['stable_rate']:.9f} "
          f"at load {best['load']:.6g}; wrote {path}")
    return 0


def _run_one(cfg: ExperimentConfig, proto: str, lam: float, seed: int):
    return simulate(proto, cfg.policy, lam, cfg.budget, seed,
                    p=cfg.p, packet_bits=cfg.packet_bits)


def _grid_runs(cfg: ExperimentConfig, seed: int):
    """Yield ``(protocol, rate, run_seed, report)`` for every protocol and
    rate of the grid, each run seeded by (seed, protocol, rate index)."""
    for proto in cfg.protocols:
        for idx, lam in enumerate(cfg.rates):
            run_seed = derive_seed(seed, proto, idx)
            yield proto, lam, run_seed, _run_one(cfg, proto, lam, run_seed)


def _report_name(proto: str, policy: str, lam: float) -> str:
    return f"sim_{proto}_{_policy_tag(policy)}_{rate_tag(lam)}.json"


def _cmd_simulate(args, cfg: ExperimentConfig) -> int:
    _require_rates(cfg, "simulate")
    seed = cfg.require_seed()
    (proto,) = cfg.protocols
    for lam in cfg.rates:
        report = _run_one(cfg, proto, lam, seed)
        path = _outpath(cfg, _report_name(proto, cfg.policy, lam))
        emit_report(report.to_dict(), "json", path, seed=seed, config=_hashable(cfg))
        try:
            mean_delay = f"{delay_stats(report).mean:.4g}"
        except EmptySampleError:
            mean_delay = "n/a"
        print(f"simulate {proto} {cfg.policy} rate={lam:g} seed={seed} "
              f"budget={cfg.budget}: thr={report.throughput:.4f} "
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


def _cmd_sweep(args, cfg: ExperimentConfig) -> int:
    _require_rates(cfg, "sweep")
    seed = cfg.require_seed()
    rows = [_delay_row(proto, lam, report)
            for proto, lam, _, report in _grid_runs(cfg, seed)]
    path = _outpath(cfg, "delay.csv")
    emit_report(rows, "csv", path, seed=seed, config=_hashable(cfg))
    print(f"sweep {','.join(cfg.protocols)} {cfg.policy} "
          f"{len(cfg.rates)} rates x budget={cfg.budget}: wrote {path}")
    return 0


def _parse_script(text: str) -> dict:
    """Parse '1:0=l,4:0=r' into {(uid, depth): goes_left}."""
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
            raise ConfigError("script",
                              f"bad entry {item!r}; want uid:depth=l|r") from None
        script[(uid, depth)] = side.startswith("l")
    return script


def _cmd_tree(args, cfg: ExperimentConfig) -> int:
    seed = cfg.require_seed()
    (proto,) = cfg.protocols
    if not 0 <= args.users <= _GRID_MAX_POINTS:
        raise ConfigError("users", f"need 0 <= users <= {_GRID_MAX_POINTS}, got {args.users}")
    coins = CoinSource(seed, cfg.p, _parse_script(args.script)) if args.script else seed
    trace = run_cri(proto, range(1, args.users + 1), cfg.p, coins, record=True)
    dot = export_tree(trace)
    path = _outpath(cfg, f"tree_{proto}_n{args.users}.dot")
    write_text(path, provenance_header("//", seed, _hashable(cfg)) + dot)
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


def _cmd_compare(args, cfg: ExperimentConfig) -> int:
    _require_rates(cfg, "compare")
    seed = cfg.require_seed()
    rows = []
    for proto, lam, run_seed, report in _grid_runs(cfg, seed):
        payload = report.to_dict()
        emit_report(payload, "json", _outpath(cfg, _report_name(proto, cfg.policy, lam)),
                    seed=run_seed, config=_hashable(cfg))
        row = {key: payload[key] for key in _COMPARE_SCALARS}
        row["ap_memory_peak"] = max(report.ap_memory_highwater, default=0)
        row.update({k: v for k, v in _delay_row(proto, lam, report).items()
                    if k not in ("lambda", "protocol")})
        rows.append(row)
    path = _outpath(cfg, "compare.csv")
    emit_report(rows, "csv", path, seed=seed, config=_hashable(cfg))
    print(f"compare {','.join(cfg.protocols)} {cfg.policy} "
          f"{len(cfg.rates)} rate(s): wrote {path} and per-run JSON")
    return 0


# ---------------------------------------------------------------- entry


def entrypoint(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "handler", None) is None:
            raise ConfigError("argv", "missing subcommand (see --help)")
        cfg = _config(args)
        return args.handler(args, cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
