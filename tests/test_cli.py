"""End-to-end tests for the command-line front end and report emission."""

import csv
import json
import os

import pytest

import treesplit
from treesplit import __version__
from treesplit.analytics import CriLengthTable
from treesplit.cli import entrypoint
from treesplit.config import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    parse_grid,
)
from treesplit.reports import config_digest, emit_report, render_csv, render_json

SCRIPT = ("1:0=l,2:0=l,3:0=l,4:0=r,1:1=r,2:1=r,3:1=r,"
          "1:2=l,2:2=l,3:2=r,1:3=l,2:3=r")


def run_cli(*argv):
    return entrypoint(list(argv))


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        rows = list(csv.DictReader(fh))
    return header, rows


class TestConfig:
    def test_defaults(self):
        cfg = ExperimentConfig().validate()
        assert cfg.p == 0.5 and cfg.packet_bits == 256 and cfg.budget == 100000
        assert cfg.seed is None

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({
            "protocols": ["sicta", "atic"], "policy": "windowed:5",
            "rates": [0.3, 0.5], "budget": 2000, "seed": 9}))
        cfg = load_config(str(path))
        assert cfg.protocols == ("sicta", "atic")
        assert cfg.policy == "windowed:5"
        assert cfg.rates == (0.3, 0.5)
        assert cfg.budget == 2000 and cfg.seed == 9
        # defaults fill the rest
        assert cfg.p == 0.5 and cfg.packet_bits == 256

    @pytest.mark.parametrize("payload,field", [
        ({"p": 1.2}, "p"),
        ({"p": "half"}, "p"),
        ({"protocols": ["aloha"]}, "protocols"),
        ({"policy": "windowed:0"}, "policy"),
        ({"policy": "free"}, "policy"),
        ({"budget": 0}, "budget"),
        ({"seed": -1}, "seed"),
        ({"packet_bits": 0}, "packet_bits"),
        ({"replications": 0}, "replications"),
        ({"mystery": 1}, "mystery"),
        ({"rates": [-0.5]}, "rates"),
        ({"rates": [float("nan")]}, "rates"),
        ({"rates": [float("inf")]}, "rates"),
        ({"policy": "windowed:nan"}, "policy"),
        ({"policy": "windowed:inf"}, "policy"),
        ({"rates": "0.1:0.5:nan"}, "rates"),
        ({"protocols": ["atic", "atic"]}, "protocols"),
        ({"rates": [0.1, 0.1]}, "rates"),
    ])
    def test_validation_names_offending_field(self, payload, field):
        with pytest.raises(ConfigError) as err:
            config_from_mapping(payload)
        assert err.value.field == field
        assert field in str(err.value)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_grid_parsing(self):
        assert parse_grid("0.1:0.3:0.1") == pytest.approx((0.1, 0.2, 0.3))
        assert parse_grid("0.25,0.5") == (0.25, 0.5)
        with pytest.raises(ConfigError):
            parse_grid("0.1:0.3:0")
        with pytest.raises(ConfigError):
            parse_grid("0.3:0.1:0.1")
        with pytest.raises(ConfigError):
            parse_grid("a:b:c")
        # The last four overflow the point count, would build 1e300 points,
        # or pass the 100,000-point cap by one.
        for text in ("0.1:0.5:nan", "0.4:inf:0.1", "0.4:0.6:inf", "nan:0.5:0.1",
                     "-inf:0.5:0.1", "0:1e308:1e-308", "-1e308:1e308:1", "0:1e300:1",
                     "0:100000:1"):
            with pytest.raises(ConfigError) as err:
                parse_grid(text, "rates")
            assert err.value.field == "rates"
        assert len(parse_grid("0:99999:1")) == 100_000

    def test_merged_override_wins(self):
        cfg = ExperimentConfig(p=0.3).merged(p=0.7)
        assert cfg.p == 0.7
        # None overrides are ignored
        assert ExperimentConfig(p=0.3).merged(p=None).p == 0.3

    def test_require_seed(self):
        with pytest.raises(ConfigError):
            ExperimentConfig().require_seed()
        assert ExperimentConfig(seed=5).require_seed() == 5


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
            emit_report([], "xml", str(tmp_path / "x.xml"))

    def test_emit_creates_directories(self, tmp_path):
        path = tmp_path / "deep" / "dir" / "t.csv"
        emit_report([{"n": 1}], "csv", str(path), seed=0, config={})
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
        protocols = ("bta", "mta", "sicta", "atic", "atic_left")
        for fmt in ("csv", "json"):
            assert run_cli("analytic", "--protocols", ",".join(protocols), "--n-max", "30",
                           "--format", fmt, "--outdir", str(tmp_path / fmt)) == 0
        for proto in protocols:
            header, rows = read_csv(tmp_path / "csv" / f"analytic_{proto}.csv")
            blob = json.loads((tmp_path / "json" / f"analytic_{proto}.json").read_text())
            assert f"config_sha256={blob['meta']['config_sha256']} " in header
            assert len(blob["data"]) == len(rows) == 30
            for got, want in zip(blob["data"], rows):
                assert got.keys() == want.keys()
                assert str(got["n"]) == want["n"]
                for key in ("L_n", "T_n"):
                    assert format(got[key], ".12g") == want[key]

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
    ])
    def test_windowed_scan_rejects_non_finite(self, tmp_path, capsys, flags, field):
        outdir = tmp_path / "out"
        assert run_cli("windowed-scan", *flags, "--outdir", str(outdir)) == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_windowed_scan_follows_config_protocol(self, tmp_path):
        config = tmp_path / "sicta.json"
        config.write_text(json.dumps({"protocols": ["sicta"]}))
        assert run_cli("windowed-scan", "--load-min", "0.5", "--load-max", "100",
                       "--points", "12", "--config", str(config),
                       "--outdir", str(tmp_path)) == 0
        _, rows = read_csv(tmp_path / "windowed_scan.csv")
        # sicta's stable rate approaches ln 2; atic's exceeds 0.9
        assert max(float(r["stable_rate"]) for r in rows) < 0.70

    def test_windowed_scan_atic_left_peaks_below_atic(self, tmp_path):
        peaks = {}
        for protocol in ("atic_left", "atic"):
            config, outdir = tmp_path / f"{protocol}.json", tmp_path / protocol
            config.write_text(json.dumps({"protocols": [protocol]}))
            assert run_cli("windowed-scan", "--load-min", "0.5", "--load-max", "100",
                           "--points", "12", "--config", str(config),
                           "--outdir", str(outdir)) == 0
            _, rows = read_csv(outdir / "windowed_scan.csv")
            peaks[protocol] = max(float(r["stable_rate"]) for r in rows)
        # atic_left's pairs still cost two slots, so its windowed rate peaks
        # (0.843 near load 3.4) above its gated limit (6/5) ln 2 = 0.832,
        # yet below atic's, which tracks (4/3) ln 2 = 0.924
        assert 0.84 < peaks["atic_left"] < 0.85 < 0.92 < peaks["atic"]

    @pytest.mark.parametrize("command,protocols", [
        ("windowed-scan", ["atic", "sicta"]),
        ("asymptote", ["sicta"]),
    ])
    def test_analytic_commands_reject_protocols_without_their_law(
            self, tmp_path, capsys, command, protocols):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"protocols": protocols}))
        outdir = tmp_path / "out"
        assert run_cli(command, "--config", str(config), "--outdir", str(outdir)) == 1
        assert "error: config field 'protocols'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags,field", [
        (("--protocols", "atic,atic", "--rates", "0.2"), "protocols"),
        (("--protocols", "atic", "--rates", "0.2,0.2"), "rates"),
    ])
    def test_compare_rejects_repeats(self, tmp_path, capsys, flags, field):
        """A repeated protocol or rate would write one report file twice."""
        outdir = tmp_path / "out"
        assert run_cli("compare", *flags, "--seed", "1", "--budget", "300",
                       "--outdir", str(outdir)) == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("argv,field", [
        (("sweep", "--rates", "0.1:0.5:nan", "--seed", "7"), "rates"),
        (("asymptote", "--p-grid", "0.4:inf:0.1"), "p_grid"),
        (("asymptote", "--p-grid", "0.4:0.6:inf"), "p_grid"),
        (("sweep", "--rates", "0:1e308:1e-308", "--seed", "7"), "rates"),
    ])
    def test_range_grids_reject_non_finite(self, tmp_path, capsys, argv, field):
        outdir = tmp_path / "out"
        assert run_cli(*argv, "--outdir", str(outdir)) == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("n_max", ["0", "-3", "100001"])
    def test_analytic_rejects_n_max_below_one(self, tmp_path, capsys, n_max):
        outdir = tmp_path / "out"
        assert run_cli("analytic", "--n-max", n_max, "--outdir", str(outdir)) == 1
        assert "error: config field 'n_max'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_simulate_writes_report(self, tmp_path):
        assert run_cli("simulate", "--protocol", "atic", "--rate", "0.4",
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
        assert run_cli("simulate", "--protocol", "atic", "--rate", "0.4",
                       "--outdir", str(tmp_path)) == 1
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,field", [
        (("--rate", "nan"), "rates"),
        (("--rate", "inf"), "rates"),
        (("--rate", "0.3", "--policy", "windowed:nan"), "policy"),
        (("--rate", "0.3", "--policy", "windowed:inf"), "policy"),
    ])
    def test_simulate_rejects_non_finite(self, tmp_path, capsys, flags, field):
        assert run_cli("simulate", "--protocol", "atic", *flags, "--budget", "100",
                       "--seed", "7", "--outdir", str(tmp_path)) == 1
        assert f"error: config field '{field}'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("policy", ["windowed_x:5", "windowed:abc", " Windowed:5"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_simulate_rejects_malformed_policy(self, tmp_path, capsys, via, policy):
        if via == "flag":
            source = ("--policy", policy)
        else:
            path = tmp_path / "run.json"
            path.write_text(json.dumps({"policy": policy}))
            source = ("--config", str(path))
        outdir = tmp_path / "out"
        assert run_cli("simulate", "--protocol", "atic", "--rate", "0.3", *source,
                       "--budget", "100", "--seed", "7", "--outdir", str(outdir)) == 1
        assert "error: config field 'policy'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_simulate_replications(self, tmp_path):
        assert run_cli("simulate", "--protocol", "sicta", "--rate", "0.3",
                       "--budget", "2000", "--seed", "5", "--replications", "3",
                       "--outdir", str(tmp_path)) == 0
        names = sorted(os.listdir(tmp_path))
        assert names == [f"sim_sicta_gated_0p3_r{i}.json" for i in range(3)]
        seeds = {json.loads((tmp_path / n).read_text())["data"]["seed"]
                 for n in names}
        assert len(seeds) == 3

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

    def test_tree_rejects_several_protocols(self, tmp_path, capsys):
        config = tmp_path / "two.json"
        config.write_text(json.dumps({"protocols": ["sicta", "atic"]}))
        outdir = tmp_path / "out"
        assert run_cli("tree", "--users", "4", "--seed", "7", "--config", str(config),
                       "--outdir", str(outdir)) == 1
        assert "error: config field 'protocols'" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.dot"))

    def test_tree_follows_config_protocol(self, tmp_path):
        config = tmp_path / "atic.json"
        config.write_text(json.dumps({"protocols": ["atic"]}))
        assert run_cli("tree", "--users", "3", "--seed", "7", "--config", str(config),
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

    def test_cli_overrides_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "protocols": ["bta"], "rates": [0.2], "budget": 1500, "seed": 2}))
        assert run_cli("simulate", "--config", str(path), "--protocol", "mta",
                       "--outdir", str(tmp_path)) == 0
        assert (tmp_path / "sim_mta_gated_0p2.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            assert run_cli("sweep", "--protocols", "sicta", "--rates", "0.3",
                           "--budget", "2500", "--seed", "5",
                           "--outdir", str(d)) == 0
        assert (d1 / "delay.csv").read_bytes() == (d2 / "delay.csv").read_bytes()

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
