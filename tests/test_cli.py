"""End-to-end tests for the command-line front end and report emission."""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treesplit
from treesplit import __version__
from treesplit.analytics import CriLengthTable, asymptotic_throughput, windowed_stable_rate
from treesplit.cli import ENV_OUTDIR, UsageError, build_parser, entrypoint, parse_grid
from treesplit.reports import config_digest, emit_report, render_csv, render_json
from treesplit.sim import simulate

COMMANDS = ("analytic", "asymptote", "windowed-scan", "simulate", "sweep", "tree", "compare")
SCRIPT = ("1:0=l,2:0=l,3:0=l,4:0=r,1:1=r,2:1=r,3:1=r,"
          "1:2=l,2:2=l,3:2=r,1:3=l,2:3=r")
# The flags each stochastic command requires.
REQUIRED = {"simulate": ("--rates", "0.3", "--seed", "1"), "tree": ("--seed", "1")}
REQUIRED["sweep"] = REQUIRED["compare"] = REQUIRED["simulate"]
# The flag of each setting whose flag is not its name.
FLAGS = {"p": "--p-grid", "n_max": "--n-max", "load_min": "--load-min",
         "load_max": "--load-max", "p_grid": "--p-grid"}


def run_cli(*argv):
    return entrypoint(list(argv))


def flag(field):
    """The flag that sets ``field``."""
    return FLAGS.get(field, "--" + field)


def flag_error(field):
    """The start of the error line reporting a bad value of ``field``."""
    return f"error: argument {flag(field)}: "


def settings_argv(field, value):
    """A command line that sets ``field`` to ``value``: a grid of split
    biases for ``p``, a setting of compare otherwise."""
    if field == "p":
        return ["asymptote", f"--p-grid={value}"]
    if isinstance(value, list):
        value = ",".join(map(str, value))
    argv = {"seed": "1", "rates": "0.3", field: str(value)}
    return ["compare", *(f"--{name}={text}" for name, text in argv.items())]


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        rows = list(csv.DictReader(fh))
    return header, rows


class TestConfig:
    """A run's settings are its parsed flags, each checked as it is parsed
    and a bad value reported against its flag."""

    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(ENV_OUTDIR, raising=False)
        args = build_parser().parse_args(["compare", "--seed", "1", "--rates", "0.3"])
        assert (args.protocols, args.policy, args.budget, args.outdir) == (
            ("atic",), "gated", 100000, ".")
        monkeypatch.setenv(ENV_OUTDIR, "runs")
        assert build_parser().parse_args(["analytic"]).outdir == "runs"

    # Each case keeps its number from when a JSON settings file also fed
    # this list; the numbers its file-only cases (JSON types, unknown keys)
    # held are skipped, and so is that of the packet size, which no flag
    # sets.  The split bias is a setting only as --p-grid's points.
    @pytest.mark.parametrize("payload,field", [
        pytest.param(payload, field, id=f"payload{n}-{field}") for n, payload, field in [
            (0, {"p": 1.2}, "p"),
            (2, {"protocols": ["aloha"]}, "protocols"),
            (3, {"policy": "windowed:0"}, "policy"),
            (4, {"policy": "free"}, "policy"),
            (5, {"budget": 0}, "budget"),
            (6, {"seed": -1}, "seed"),
            (10, {"rates": [-0.5]}, "rates"),
            (11, {"rates": [float("nan")]}, "rates"),
            (12, {"rates": [float("inf")]}, "rates"),
            (13, {"policy": "windowed:nan"}, "policy"),
            (14, {"policy": "windowed:inf"}, "policy"),
            (16, {"protocols": ["atic", "atic"]}, "protocols"),
            (17, {"rates": [0.1, 0.1]}, "rates"),
            (18, {"policy": "windowed:0.5"}, "policy"),
            (19, {"protocols": []}, "protocols"),
        ]
    ])
    def test_validation_names_offending_field(self, payload, field):
        with pytest.raises(UsageError) as err:
            build_parser().parse_args(settings_argv(field, payload[field]))
        assert str(err.value).startswith(f"argument {flag(field)}: ")

    @pytest.mark.parametrize("field,value", [
        ("rates", math.nan), ("rates", -0.5), ("rates", math.inf), ("budget", 0),
        ("p", 1.2), ("policy", "windowed:0.5"), ("protocols", "aloha"),
    ])
    def test_cli_and_library_share_each_rule(self, field, value):
        """A bad value gets the library's own error, which the CLI
        reports against its flag."""
        args = {"protocol": "atic", "policy": "gated", "rate": 0.3, "budget": 100, "seed": 1}
        args[{"rates": "rate", "protocols": "protocol"}.get(field, field)] = value
        with pytest.raises(ValueError) as lib:
            # --p-grid's points pass the split-bias rule of the laws.
            asymptotic_throughput(value) if field == "p" else simulate(**args)
        with pytest.raises(UsageError) as cli:
            build_parser().parse_args(settings_argv(field, value))
        assert str(cli.value) == f"argument {flag(field)}: {lib.value}"

    def test_grid_parsing(self):
        assert parse_grid("0.1:0.3:0.1") == pytest.approx((0.1, 0.2, 0.3))
        assert parse_grid("0.25,0.5") == (0.25, 0.5)
        with pytest.raises(ValueError):
            parse_grid("0.1:0.3:0")
        with pytest.raises(ValueError):
            parse_grid("0.3:0.1:0.1")
        with pytest.raises(ValueError):
            parse_grid("a:b:c")
        # The first three are a range without a step, a non-numeric list
        # entry and an empty list.  The last four overflow the point count,
        # would build 1e300 points, or pass the 100,000-point cap by one.
        parse = build_parser().parse_args
        for text in ("0.1:0.5", "0.1,x", ",", "0.1:0.5:nan", "0.4:inf:0.1", "0.4:0.6:inf",
                     "nan:0.5:0.1", "-inf:0.5:0.1", "0:1e308:1e-308", "-1e308:1e308:1",
                     "0:1e300:1", "0:100000:1"):
            with pytest.raises(ValueError) as lib:
                parse_grid(text)
            with pytest.raises(UsageError) as cli:
                parse(["sweep", "--seed", "1", f"--rates={text}"])
            assert str(cli.value) == f"argument --rates: {lib.value}"
        assert len(parse_grid("0:99999:1")) == 100_000

    def test_flags_over_defaults(self):
        parse = build_parser().parse_args
        args = parse(["simulate", "--seed", "1", "--rates", "0.3", "--budget", "7",
                      "--policy", "windowed:2"])
        assert (args.protocol, args.budget, args.policy) == ("atic", 7, "windowed:2")
        args = parse(["sweep", "--protocols", " sicta, ,atic", "--rates", "0.1:0.3:0.1",
                      "--seed", "1"])
        assert args.protocols == ("sicta", "atic")
        assert args.rates == pytest.approx((0.1, 0.2, 0.3))
        assert parse(["tree", "--protocol", "mta", "--seed", "1"]).protocol == "mta"
        # One --protocol names one protocol, commas and all
        with pytest.raises(UsageError, match="^argument --protocol: unknown protocol"):
            parse(["simulate", "--protocol", "atic,sicta", "--seed", "1", "--rates", "0.3"])

    def test_require_seed(self):
        parse = build_parser().parse_args
        for argv in (["simulate", "--rates", "0.3"], ["sweep", "--rates", "0.3"],
                     ["compare", "--rates", "0.3"], ["tree"]):
            with pytest.raises(UsageError, match="required: --seed$"):
                parse(argv)
        assert parse(["tree", "--seed", "5"]).seed == 5


class TestReports:
    def test_csv_significant_digits(self):
        text = render_csv([{"x": 1.0 / 3.0}], seed=1, config={"a": 1})
        assert "0.333333333333" in text
        assert text.startswith("# seed=1 config_sha256=")
        assert text.splitlines()[0].endswith(f" version={__version__}")

    def test_json_round_trip_idempotent(self):
        payload = {"value": 2.0 / 3.0, "nested": {"pi": 3.14159265358979}}
        once = render_json(payload, seed=3, config={"a": 1})
        again = render_json(json.loads(once)["data"], seed=3, config={"a": 1})
        assert once == again
        assert json.loads(once)["meta"] == {
            "seed": 3, "config_sha256": config_digest({"a": 1}), "version": __version__}

    def test_digest_stable_under_key_order(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})

    def test_emit_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report([], str(tmp_path / "x.xml"))

    def test_emit_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.csv"
        emit_report([{"n": 1}], str(path), seed=0, config={})
        assert path.exists()


class TestCommands:
    def test_analytic_matches_recursion(self, tmp_path):
        assert run_cli("analytic", "--n-max", "6", "--protocols", "atic",
                       "--outdir", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "analytic_atic.csv")
        assert header.startswith("# seed=none config_sha256=")
        assert [r["n"] for r in rows] == ["1", "2", "3", "4", "5", "6"]
        table = CriLengthTable(0.5, "atic")
        for row in rows:
            n = int(row["n"])
            assert float(row["L_n"]) == pytest.approx(table.expected(n), rel=1e-11)
            assert float(row["T_n"]) == pytest.approx(n / table.expected(n), rel=1e-11)

    def test_analytic_json_rows_match_csv(self, tmp_path):
        """Every protocol's CSV rows are its length table's, to 12 digits."""
        protocols = ("bta", "mta", "sicta", "atic", "atic_left")
        assert run_cli("analytic", "--protocols", ",".join(protocols), "--n-max", "30",
                       "--outdir", str(tmp_path)) == 0
        for proto in protocols:
            _, rows = read_csv(tmp_path / f"analytic_{proto}.csv")
            table = CriLengthTable(0.5, proto)
            assert [row["n"] for row in rows] == [str(n) for n in range(1, 31)]
            for row in rows:
                n = int(row["n"])
                assert row["L_n"] == format(table.expected(n), ".12g")
                assert row["T_n"] == format(table.throughput(n), ".12g")

    def test_analytic_writes_atic_left_law(self, tmp_path):
        assert run_cli("analytic", "--protocols", "atic_left", "--n-max", "4",
                       "--outdir", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "analytic_atic_left.csv")
        assert float(rows[2]["L_n"]) == pytest.approx(11.0 / 3.0, rel=1e-11)

    def test_asymptote_reports_argmax(self, tmp_path):
        assert run_cli("asymptote", "--p-grid", "0.45:0.55:0.01",
                       "--outdir", str(tmp_path)) == 0
        blob = json.loads((tmp_path / "asymptote.json").read_text())
        assert blob["data"]["argmax_p"] == pytest.approx(0.5)
        assert blob["data"]["throughput"] == pytest.approx(0.924196240747, abs=1e-9)

    def test_windowed_scan_schema(self, tmp_path):
        assert run_cli("windowed-scan", "--load-min", "0.5", "--load-max", "50",
                       "--points", "12", "--outdir", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "windowed_scan.csv")
        assert len(rows) == 12
        assert set(rows[0]) == {"load", "stable_rate"}
        assert all(0.0 < float(r["stable_rate"]) < 1.0 for r in rows)

    @pytest.mark.parametrize("flags,field", [
        (("--load-max", "inf"), "load_max"),
        (("--load-max", "nan"), "load_max"),
        (("--load-max", "1e400"), "load_max"),
        (("--load-min", "nan"), "load_min"),
        (("--load-max", "1e300"), "load_max"),
        (("--points", "100001"), "points"),
        (("--load-min", "5", "--load-max", "1"), "load_min"),
    ])
    def test_windowed_scan_rejects_non_finite(self, tmp_path, capsys, flags, field):
        outdir = tmp_path / "out"
        assert run_cli("windowed-scan", *flags, "--outdir", str(outdir)) == 1
        assert flag_error(field) in capsys.readouterr().err
        assert not outdir.exists()

    def test_analytic_rejects_a_bias_below_the_coin_resolution(self, tmp_path, capsys):
        """The split bias an analytic command scans is checked by the
        library's rule, which refuses p below 2^-53."""
        outdir = tmp_path / "out"
        assert run_cli("asymptote", "--p-grid", "1e-20,0.5", "--outdir", str(outdir)) == 1
        assert flag_error("p_grid") + "split probability must lie in [2^-53, 1)" in (
            capsys.readouterr().err)
        assert not outdir.exists()

    @staticmethod
    def windowed_peak(protocol):
        """The largest stable rate of ``protocol``'s table on windowed-scan's
        grid of 12 loads from 0.5 to 100: the CLI scans atic's table, the
        library every protocol's."""
        table = CriLengthTable(0.5, protocol)
        return max(windowed_stable_rate(float(x), table) for x in np.geomspace(0.5, 100, 12))

    def test_windowed_scan_follows_config_protocol(self):
        # sicta's stable rate approaches ln 2; atic's exceeds 0.9
        assert self.windowed_peak("sicta") < 0.70

    def test_windowed_scan_atic_left_peaks_below_atic(self):
        peaks = {protocol: self.windowed_peak(protocol) for protocol in ("atic_left", "atic")}
        # atic_left's pairs still cost two slots, so its windowed rate peaks
        # (0.843 near load 3.4) above its gated limit (6/5) ln 2 = 0.832,
        # yet below atic's, which tracks (4/3) ln 2 = 0.924
        assert 0.84 < peaks["atic_left"] < 0.85 < 0.92 < peaks["atic"]

    @pytest.mark.parametrize("flags,field", [
        (("--protocols", "atic,atic", "--rates", "0.2"), "protocols"),
        (("--protocols", "atic", "--rates", "0.2,0.2"), "rates"),
    ])
    def test_compare_rejects_repeats(self, tmp_path, capsys, flags, field):
        """A repeated protocol or rate would write one report file twice."""
        outdir = tmp_path / "out"
        assert run_cli("compare", *flags, "--seed", "1", "--budget", "300",
                       "--outdir", str(outdir)) == 1
        assert flag_error(field) in capsys.readouterr().err
        assert not outdir.exists()

    def test_compare_rejects_rates_sharing_a_file_tag(self, tmp_path, capsys):
        """Rates equal to six significant digits would share one report file."""
        outdir = tmp_path / "out"
        assert run_cli("compare", "--protocols", "atic", "--rates", "0.1000001,0.1000002",
                       "--seed", "1", "--budget", "300", "--outdir", str(outdir)) == 1
        assert flag_error("rates") in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv,field", [
        (("sweep", "--rates", "0.1:0.5:nan", "--seed", "7"), "rates"),
        (("asymptote", "--p-grid", "0.4:inf:0.1"), "p_grid"),
        (("asymptote", "--p-grid", "0.4:0.6:inf"), "p_grid"),
        (("sweep", "--rates", "0:1e308:1e-308", "--seed", "7"), "rates"),
        (("asymptote", "--p-grid", "0:1:0.5"), "p_grid"),
    ])
    def test_range_grids_reject_non_finite(self, tmp_path, capsys, argv, field):
        outdir = tmp_path / "out"
        assert run_cli(*argv, "--outdir", str(outdir)) == 1
        assert flag_error(field) in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("n_max", ["0", "-3", "100001"])
    def test_analytic_rejects_n_max_below_one(self, tmp_path, capsys, n_max):
        outdir = tmp_path / "out"
        assert run_cli("analytic", "--n-max", n_max, "--outdir", str(outdir)) == 1
        assert flag_error("n_max") in capsys.readouterr().err
        assert not outdir.exists()

    def test_simulate_writes_report(self, tmp_path):
        assert run_cli("simulate", "--protocol", "atic", "--rates", "0.4",
                       "--budget", "4000", "--seed", "7",
                       "--outdir", str(tmp_path)) == 0
        blob = json.loads((tmp_path / "sim_atic_gated_0p4.json").read_text())
        data = blob["data"]
        assert data["protocol"] == "atic" and data["seed"] == 7
        assert data["arrivals_total"] == (
            data["packets_decoded"] + data["terminal_backlog"])

    def test_simulate_rate_list(self, tmp_path):
        assert run_cli("simulate", "--protocol", "atic", "--rates", "0.2,0.4",
                       "--budget", "2000", "--seed", "7",
                       "--outdir", str(tmp_path)) == 0
        assert sorted(os.listdir(tmp_path)) == [
            "sim_atic_gated_0p2.json", "sim_atic_gated_0p4.json"]

    def test_simulate_requires_seed(self, tmp_path, capsys):
        assert run_cli("simulate", "--protocol", "atic", "--rates", "0.4",
                       "--outdir", str(tmp_path)) == 1
        assert "error: the following arguments are required: --seed" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("flags,field", [
        (("--rates", "nan"), "rates"),
        (("--rates", "inf"), "rates"),
        (("--rates", "0.3", "--policy", "windowed:nan"), "policy"),
        (("--rates", "0.3", "--policy", "windowed:inf"), "policy"),
    ])
    def test_simulate_rejects_non_finite(self, tmp_path, capsys, flags, field):
        assert run_cli("simulate", "--protocol", "atic", *flags, "--budget", "100",
                       "--seed", "7", "--outdir", str(tmp_path)) == 1
        assert flag_error(field) in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_simulate_window_of_at_least_one_slot(self, tmp_path, capsys):
        # Windows under a slot would queue without bound: every interval
        # takes a slot.  A window of exactly one slot runs.
        argv = ("simulate", "--protocol", "atic", "--rates", "0.1", "--budget", "100",
                "--seed", "7")
        outdir = tmp_path / "short"
        assert run_cli(*argv, "--policy", "windowed:0.5", "--outdir", str(outdir)) == 1
        assert flag_error("policy") in capsys.readouterr().err
        assert not outdir.exists()
        assert run_cli(*argv, "--policy", "windowed:1", "--outdir", str(tmp_path)) == 0
        assert os.listdir(tmp_path) == ["sim_atic_windowed-1_0p1.json"]

    @pytest.mark.parametrize("policy", ["windowed_x:5", "windowed:abc", " Windowed:5",
                                        "windowed:", "windowed:40:2"])
    def test_simulate_rejects_malformed_policy(self, tmp_path, capsys, policy):
        outdir = tmp_path / "out"
        assert run_cli("simulate", "--protocol", "atic", "--rates", "0.3", "--policy", policy,
                       "--budget", "100", "--seed", "7", "--outdir", str(outdir)) == 1
        err = capsys.readouterr().err
        assert err.startswith(flag_error("policy")) and err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["simulate", "sweep", "compare"])
    def test_traffic_commands_need_a_rate(self, tmp_path, capsys, command):
        outdir = tmp_path / "out"
        assert run_cli(command, "--seed", "1", "--budget", "100",
                       "--outdir", str(outdir)) == 1
        assert "error: the following arguments are required: --rates" in (
            capsys.readouterr().err)
        assert not outdir.exists()

    def test_simulate_without_arrivals_has_no_delay(self, tmp_path, capsys):
        assert run_cli("simulate", "--protocol", "atic", "--rates", "0", "--budget", "100",
                       "--seed", "7", "--outdir", str(tmp_path)) == 0
        assert "delay=n/a" in capsys.readouterr().out

    def test_sweep_rate_without_arrivals_writes_nan_row(self, tmp_path):
        assert run_cli("sweep", "--protocols", "atic", "--rates", "0,0.3", "--budget", "2000",
                       "--seed", "7", "--outdir", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "delay.csv")
        idle, busy = rows
        assert float(idle["lambda"]) == 0.0 and idle["n_samples"] == "0"
        for key in ("mean", "var", "p50", "p95"):
            assert math.isnan(float(idle[key]))
        assert int(busy["n_samples"]) > 0

    def test_tree_script_skips_empty_entries(self, tmp_path):
        for name, script in (("gap", "1:0=l,,2:0=r"), ("plain", "1:0=l,2:0=r")):
            assert run_cli("tree", "--protocol", "sicta", "--users", "2", "--seed", "3",
                           "--script", script, "--outdir", str(tmp_path / name)) == 0
        dot = "tree_sicta_n2.dot"
        assert (tmp_path / "gap" / dot).read_text() == (tmp_path / "plain" / dot).read_text()

    def test_sweep_delay_schema(self, tmp_path):
        assert run_cli("sweep", "--protocols", "sicta,atic", "--rates",
                       "0.2:0.4:0.2", "--budget", "3000", "--seed", "11",
                       "--outdir", str(tmp_path)) == 0
        header, rows = read_csv(tmp_path / "delay.csv")
        assert list(rows[0]) == ["lambda", "protocol", "mean", "var",
                                 "p50", "p95", "n_samples"]
        assert len(rows) == 4
        assert {r["protocol"] for r in rows} == {"sicta", "atic"}

    def test_tree_scripted_worked_example(self, tmp_path):
        assert run_cli("tree", "--protocol", "sicta", "--users", "4",
                       "--seed", "7", "--script", SCRIPT,
                       "--outdir", str(tmp_path)) == 0
        dot = (tmp_path / "tree_sicta_n4.dot").read_text()
        assert dot.count("dashed") == 4
        assert dot.count("slot ") == 5
        assert dot.startswith("// seed=7 config_sha256=")
        assert dot.splitlines()[0].endswith(f" version={__version__}")

    @pytest.mark.parametrize("users", ["-1", "100001", "10000000000"])
    def test_tree_rejects_user_counts_out_of_range(self, tmp_path, capsys, monkeypatch, users):
        """A recorded tree holds about two rows per user, so the count is
        bounded like the analytic table's n_max, before any run starts."""
        def no_run(*args, **kwargs):
            raise AssertionError("run_cri called")
        monkeypatch.setattr(treesplit.cli, "run_cri", no_run)
        assert run_cli("tree", "--users", users, "--seed", "7",
                       "--outdir", str(tmp_path)) == 1
        assert flag_error("users") in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dot"))

    def test_tree_follows_config_protocol(self, tmp_path):
        assert run_cli("tree", "--protocol", "atic", "--users", "3", "--seed", "7",
                       "--outdir", str(tmp_path)) == 0
        assert (tmp_path / "tree_atic_n3.dot").exists()

    def test_compare_superset_of_simulate(self, tmp_path):
        assert run_cli("compare", "--protocols", "bta,atic", "--rates", "0.3",
                       "--budget", "3000", "--seed", "3",
                       "--outdir", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "compare.csv")
        assert {r["protocol"] for r in rows} == {"bta", "atic"}
        # per-run JSON artifacts carry the full un-aggregated reports
        for proto in ("bta", "atic"):
            blob = json.loads(
                (tmp_path / f"sim_{proto}_gated_0p3.json").read_text())
            row = next(r for r in rows if r["protocol"] == proto)
            for key in ("slots_simulated", "packets_decoded", "cri_count"):
                assert int(row[key]) == blob["data"][key]

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("sweep", "--protocols", "sicta", "--rates", "0.3",
                           "--budget", "2500", "--seed", "5",
                           "--outdir", str(d)) == 0
        assert (d1 / "delay.csv").read_bytes() == (d2 / "delay.csv").read_bytes()

    @staticmethod
    def header_hash(outdir, *argv):
        """The ``config_sha256`` of the one artifact ``argv`` writes."""
        assert run_cli(*argv, "--outdir", str(outdir)) == 0
        (path,) = outdir.iterdir()
        return re.search(r"config_sha256\W+([0-9a-f]{64})", path.read_text()).group(1)

    def test_header_hash_follows_every_flag(self, tmp_path):
        """Runs that differ in any flag but --outdir hash apart; the same
        flags in another order, or written elsewhere, hash alike."""
        scan = ("windowed-scan", "--load-min", "0.5", "--load-max", "50")
        tree = ("tree", "--protocol", "sicta", "--users", "2", "--seed", "3")
        pairs = [
            (("analytic", "--n-max", "6"), ("analytic", "--n-max", "7")),
            ((*scan, "--points", "12"), (*scan, "--points", "13")),
            ((*scan, "--points", "12"), ("windowed-scan", "--load-min", "0.5",
                                         "--load-max", "60", "--points", "12")),
            (("asymptote", "--p-grid", "0.45:0.55:0.01"), ("asymptote", "--p-grid", "0.45,0.55")),
            (("tree", "--users", "3", "--seed", "7"), ("tree", "--users", "4", "--seed", "7")),
            (tree, (*tree, "--script", "1:0=l,2:0=r")),
        ]
        for k, (one, other) in enumerate(pairs):
            assert (self.header_hash(tmp_path / f"a{k}", *one)
                    != self.header_hash(tmp_path / f"b{k}", *other)), (one, other)
        same = [
            (("analytic", "--n-max", "6", "--protocols", "sicta"),
             ("analytic", "--protocols", "sicta", "--n-max", "6")),
            ((*tree, "--script", "1:0=l,2:0=r"),
             ("tree", "--script", "1:0=l,2:0=r", "--seed", "3", "--users", "2",
              "--protocol", "sicta")),
        ]
        for k, (one, other) in enumerate(same):
            assert (self.header_hash(tmp_path / f"c{k}", *one)
                    == self.header_hash(tmp_path / f"d{k}", *other)), (one, other)

    def test_bad_subcommand_exits_one(self, capsys):
        assert run_cli("bogus") == 1
        assert run_cli() == 1
        capsys.readouterr()

    def test_unwritable_outdir_exits_two(self, tmp_path, capsys):
        block = tmp_path / "blocker"
        block.write_text("file, not dir")
        assert run_cli("analytic", "--n-max", "3",
                       "--outdir", str(block / "sub")) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bad_script_entry(self, tmp_path, capsys):
        assert run_cli("tree", "--users", "2", "--seed", "1",
                       "--script", "1:0=sideways",
                       "--outdir", str(tmp_path)) == 1
        assert "script" in capsys.readouterr().err


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from treesplit import *", namespace)
    assert set(treesplit.__all__) <= set(namespace)


class TestSurface:
    """Options and names that only tests used are gone, the settings file
    with them: settings are the parsed flags.  The module entry point and
    the signal algebra's own module stay."""

    @pytest.mark.parametrize("argv", [
        ("simulate", "--protocol", "atic", "--rates", "0.3", "--seed", "1",
         "--budget", "100", "--replications", "2"),
        ("analytic", "--n-max", "3", "--format", "json"),
        *((command, *REQUIRED.get(command, ()), "--config", "run.json") for command in COMMANDS),
        *((command, *REQUIRED.get(command, ()), "--p", "0.5") for command in COMMANDS),
        *((command, *REQUIRED[command], "--bits", "64") for command in ("simulate", "sweep",
                                                                       "compare")),
    ])
    def test_removed_options_are_usage_errors(self, tmp_path, capsys, argv):
        outdir = tmp_path / "out"
        assert run_cli(*argv, "--outdir", str(outdir)) == 1
        removed = next(arg for arg in argv if arg in (
            "--replications", "--format", "--config", "--p", "--bits"))
        err = capsys.readouterr().err
        assert err.startswith(f"error: unrecognized arguments: {removed} ")
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_help_lists_only_kept_options(self, capsys):
        for command in COMMANDS:
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
        out = capsys.readouterr().out
        assert "--rates" in out and "--n-max" in out and "--p-grid" in out
        assert not re.search(r"--rate\b|--replications|--format|--config|--p\b(?!-)|--bits", out)
        assert not {"load_config", "config_from_mapping", "ExperimentConfig"} & set(
            vars(treesplit.cli))

    def test_signal_names_left_the_package_namespace(self):
        src = str(Path(treesplit.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import treesplit; "
                "print(*(name in sys.modules for name in ('treesplit.signals', "
                "'treesplit.cli', 'treesplit.config', 'argparse'))); "
                "from treesplit.signals import Signal; print(Signal.__name__)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.split() == ["False", "False", "False", "False", "Signal"]
        exported = set(treesplit.__all__)
        assert exported.isdisjoint({"Signal", "superpose", "cancel", "NotContainedError"})
        # The settings and their errors belong to the CLI, which no library
        # function takes or returns.
        assert len(treesplit.__all__) == 38
        assert exported.isdisjoint({"ConfigError", "ExperimentConfig", "parse_grid"})


class TestModuleEntryPoint:
    """``python -m treesplit`` runs the CLI in a fresh interpreter."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(treesplit.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        return subprocess.run([sys.executable, "-m", "treesplit", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_analytic_writes_its_table(self, tmp_path):
        proc = self.run_module("analytic", "--n-max", "3", "--outdir", str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert os.listdir(tmp_path) == ["analytic_atic.csv"]

    def test_missing_command_exits_one(self):
        proc = self.run_module()
        assert proc.returncode == 1
        assert proc.stderr == "error: the following arguments are required: command\n"
