import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from harvestsim.cli import main
from harvestsim.scenario import SchemaError, parse_scenario

TREE = (
    resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
)


@pytest.fixture
def tree_path(tmp_path):
    p = tmp_path / "tree.yaml"
    p.write_text(TREE)
    return str(p)


def read_json(path):
    return json.loads(Path(path).read_text())


class TestRunCommand:
    def test_writes_outputs_and_exits_zero(self, tree_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["run", "--config", tree_path, "--slots", "20", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        for name in ("scenario.yaml", "slots.csv", "ledger.csv", "routes.csv",
                     "forecast.csv", "summary.json"):
            assert (out / name).exists(), name
        summary = read_json(out / "summary.json")
        assert summary["seed"] == 3
        assert summary["slots"] == 20
        assert "config" in summary

    def test_echoed_config_reproduces_byte_identical(self, tree_path, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", tree_path, "--slots", "15", "--seed", "4",
                     "--out", str(out1)]) == 0
        assert main(["run", "--config", str(out1 / "scenario.yaml"),
                     "--out", str(out2)]) == 0
        for name in ("scenario.yaml", "slots.csv", "ledger.csv", "routes.csv",
                     "forecast.csv", "summary.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_schema_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nnodes:\n  - {id: A, role: sink}\nunknown_key: 1\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_nodes_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nnodes: [1]\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nodes/0: 1 is not of type 'object'" in capsys.readouterr().err

    def test_malformed_yaml_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: x\nnodes: [\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "not valid YAML" in err
        assert "line 3" in err  # the stream ends inside the flow list

    def test_zero_slots_is_a_usage_error(self, tree_path, tmp_path):
        out = tmp_path / "o"
        code = main(["run", "--config", tree_path, "--slots", "0", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_bad_tx_cost_power_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text(TREE + "costs: {tx128: {high: 300}}\n")
        code = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "old, new, violation",
        [
            ("  schedule_mode: formula\n", "  schedule_mode: formula\n  cca_threshold_dbm: .nan\n",
             "mac/cca_threshold_dbm: nan"),
            ("duty_energy_uj: 10000.0", "duty_energy_uj: .inf", "energy/duty_energy_uj: inf"),
            ("epsilon: 0.5", "epsilon: .nan", "predictor/epsilon: nan"),
            ("amplitude_w: 0.008,", "amplitude_w: .inf,", "profiles/direct/amplitude_w: inf"),
        ],
        ids=["cca-threshold-nan", "duty-energy-inf", "epsilon-nan", "amplitude-inf"],
    )
    def test_non_finite_number_is_a_config_error(self, tmp_path, capsys, old, new, violation):
        # A NaN CCA threshold would run with carrier sense never firing; the
        # others would fail at slot 0 as runtime errors.
        assert TREE.count(old) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(TREE.replace(old, new))
        out = tmp_path / "o"
        code = main(["run", "--config", str(bad), "--slots", "30", "--out", str(out)])
        assert code == 2
        assert f"  - {violation} is not a finite number\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "old, new, fields",
        [
            ("slot_duration_s: 60.0", "slot_duration_s: 1.0e+9",
             ["routing/beacon_period_s", "traffic/packet_period_s"]),
            ("beacon_period_s: 30.0", "beacon_period_s: 0.001", ["routing/beacon_period_s"]),
            ("packet_period_s: 10.0", "packet_period_s: 0.001", ["traffic/packet_period_s"]),
        ],
        ids=["slot-duration-1e9", "beacon-period-1ms", "packet-period-1ms"],
    )
    def test_unbounded_per_slot_work_is_a_config_error(self, tmp_path, capsys, old, new, fields):
        # Each would schedule 60,000 to 10^8 beacons or packets per node-slot.
        assert TREE.count(old) == 1
        text = TREE.replace(old, new)
        with pytest.raises(SchemaError):  # checked first: a run of it would not end
            parse_scenario(text)
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        out = tmp_path / "o"
        code = main(["run", "--config", str(bad), "--slots", "2", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        for name in fields:
            assert f"  - slot_duration_s / {name}: " in err
        assert err.count("per node-slot exceeds 10000") == len(fields)

    @pytest.mark.parametrize(
        "old, new",
        [("slots: 2000", "slots: 10.0"), ("seed: 11", "seed: 7.0"),
         ("repeat: 6,", "repeat: 6.0,")],
        ids=["slots", "seed", "repeat"],
    )
    def test_integer_valued_float_is_a_config_error(self, tmp_path, capsys, old, new):
        assert TREE.count(old) == 1
        bad = tmp_path / "bad.yaml"
        bad.write_text(TREE.replace(old, new))
        out = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--slots", "5", "--out", str(out)]) == 2
        assert "is not of type 'integer'" in capsys.readouterr().err
        assert not out.exists()

    def test_int_key_beside_str_key_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(TREE + "costs: {tx128: {0: -1.0, high: -2.0}}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(bad), "--out", str(out)]) == 2
        assert "  - costs/tx128/0: -1.0 is less than" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rows", [None, 3], ids=["missing", "too-short"])
    def test_csv_trace_set_up_failure_writes_nothing(self, tmp_path, capsys, rows):
        trace = tmp_path / "trace.csv"
        if rows is not None:
            trace.write_text("slot,power_watts\n" + "".join(f"{i},0.001\n" for i in range(rows)))
        direct = "direct:    {kind: synthetic, amplitude_w: 0.008,"
        assert TREE.count(direct) == 1
        config = tmp_path / "csv.yaml"
        config.write_text(TREE.replace(direct, f"direct: {{kind: csv, path: '{trace}',"))
        out = tmp_path / "o"
        assert main(["run", "--config", str(config), "--slots", "20", "--out", str(out)]) == 3
        assert "runtime failure: profile direct: " in capsys.readouterr().err
        assert not out.exists()

    def test_mac_trace_flag(self, tree_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", tree_path, "--slots", "5", "--out", str(out),
              "--mac-trace"])
        assert (out / "mac_trace.csv").exists()


class TestPinnedOutputs:
    """sha256 of each output of ``run`` on the shipped tree, seed 11, 300
    slots. A change that alters an output on purpose updates the pin and
    names the change; any other change must leave these bytes alone."""

    PINNED = {
        "modified": {
            "summary.json": "192963f037aee8174c42ba523be390c52b8544ccfe165e4823d314aa70c2ea3a",
            "slots.csv": "db65931a4285f1ecb04497e722cf307d2b70206f2c7e22bcf37d8087dfcf7d1b",
            "ledger.csv": "976e59f9859c113762e9459243f3275c37b0cc4e98e4a0d727283bd7e4a76ff7",
            "routes.csv": "e9a8966b2f4e9f9e5902e31e894ef438802980a18a2ecc88db01c0d83505cd7f",
            "forecast.csv": "e7ed0235c5a9cc74c4d577c27134c419c9d472547338ac5d8fa37d96b2b2cddd",
        },
        "baseline": {
            "summary.json": "9c8fc15d24012ab31c456f891403bc8c3bf4d1ebf1e3e06bd95a347da140df66",
            "slots.csv": "a0ee4e1f58ad9ee2728e7d80094fa72583bb1c708d2ae6f4b1eefcedb82f1847",
            "ledger.csv": "c67fd0a0d5c2775a16bf19dac9b26caca843cd2508421b08bc5c258e4b79a15d",
            "routes.csv": "76c2b1ff7638ec1f1a2f84e14784c2795d74ea3a8f14ee2ed7f1599945cd59e9",
            "forecast.csv": "e7ed0235c5a9cc74c4d577c27134c419c9d472547338ac5d8fa37d96b2b2cddd",
        },
    }

    @pytest.mark.parametrize("mode", ["modified", "baseline"])
    def test_run_outputs_match_pinned_digests(self, tree_path, tmp_path, mode):
        out = tmp_path / mode
        argv = ["run", "--config", tree_path, "--seed", "11", "--slots", "300", "--mode", mode,
                "--out", str(out)]
        assert main(argv) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in self.PINNED[mode]
        }
        assert digests == self.PINNED[mode]


class TestTradeoffCommand:
    def test_fixture_curve(self, tmp_path):
        out = tmp_path / "to"
        code = main(["tradeoff", "--out", str(out)])
        assert code == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert lines[0] == "v_microjoules,u,alpha_1,alpha_2,delta"
        rows = [line.split(",") for line in lines[1:]]
        points = [(float(r[0]), float(r[1])) for r in rows]
        assert points == [(0.0, 7.0), (10.0, 6.0), (40.0, 0.0)]

    def test_infeasible_exit_code(self, tmp_path):
        # Budget beyond total absorbing capacity: sweep cannot start.
        code = main([
            "tradeoff", "--weights", "1", "--costs", "10", "--duty-energy", "5",
            "--budget", "100", "--out", str(tmp_path / "x"),
        ])
        assert code == 3


    @pytest.mark.parametrize(
        "args",
        [["--weights", "a,b"], ["--weights", ","], ["--weights", "6,2", "--costs", "30"],
         ["--costs", "0,20"], ["--duty-energy", "0"], ["--budget", "-1"], ["--budget", "nan"],
         ["--duty-weight", "-1"], ["--duty-weight", "nan"], ["--duty-weight", "inf"]],
        ids=" ".join,
    )
    def test_bad_inputs_are_usage_errors(self, tmp_path, args):
        out = tmp_path / "o"
        assert main(["tradeoff", *args, "--out", str(out)]) == 2
        assert not out.exists()


class TestForecastCompareCommand:
    def test_flat_trace_zero_error(self, tmp_path):
        # No day-type switching and no trend: both predictors converge on
        # the repeating series; errors vanish on the masked (daylight) slots.
        out = tmp_path / "fc"
        code = main([
            "forecast-compare", "--days", "12", "--switch-prob", "0.0",
            "--out", str(out),
        ])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["hw_mape"] < 0.01
        assert summary["ewma_mape"] > summary["hw_mape"]

    def test_switching_trace_orders_predictors(self, tmp_path):
        out = tmp_path / "fc"
        code = main(["forecast-compare", "--days", "30", "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["hw_mape"] < summary["ewma_mape"]

    # The tree file's predictor is an EWMA with epsilon 0.5; the edited
    # copies give it a seasonal kind (the EWMA then falls back to 0.5) and
    # another EWMA weight (the EWMA then uses it).
    @pytest.mark.parametrize(
        "predictor, ewma_epsilon",
        [
            ("  kind: ewma\n  epsilon: 0.5\n", 0.5),
            ("  kind: hw\n  epsilon: 0.7\n", 0.5),
            ("  kind: ewma\n  epsilon: 0.3\n", 0.3),
        ],
        ids=["tree", "hw", "ewma-0.3"],
    )
    def test_config_supplies_weights_period_and_seed(self, tmp_path, predictor, ewma_epsilon):
        text = TREE.replace("  kind: ewma\n  epsilon: 0.5\n", predictor)
        assert predictor in text
        config = tmp_path / "scenario.yaml"
        config.write_text(text)
        cfg = parse_scenario(text)
        pred = cfg.predictor
        out = tmp_path / "fc"
        code = main(["forecast-compare", "--config", str(config), "--out", str(out)])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["hw_parameters"] == [pred.epsilon, pred.beta, pred.gamma]
        assert summary["ewma_epsilon"] == ewma_epsilon
        assert summary["seed"] == cfg.seed
        rows = (out / "forecast_compare.csv").read_text().splitlines()[1:]
        # Scoring starts after the seasonal model's two-period warm-up.
        assert int(rows[0].split(",")[0]) == 2 * pred.period

    @pytest.mark.parametrize(
        "args",
        [["--period", "0"], ["--period", "1"], ["--period", "2"], ["--days", "0"],
         ["--days", "2"]],
        ids=" ".join,
    )
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, args):
        out = tmp_path / "o"
        assert main(["forecast-compare", *args, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [["--seed", "5"], ["--period", "12"], ["--slot-duration", "30"],
         ["--seed", "7", "--period", "24"]],
        ids=" ".join,
    )
    def test_config_with_its_own_settings_is_a_usage_error(self, tree_path, tmp_path,
                                                           capsys, args):
        out = tmp_path / "o"
        code = main(["forecast-compare", "--config", tree_path, *args, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        for flag in args[::2]:
            assert flag in err

    @pytest.mark.parametrize(
        "args",
        [["--switch-prob", "2"], ["--attenuation", "5"], ["--amplitude", "-1"],
         ["--slot-duration", "0"], ["--slot-duration", "-60"],
         # A JSON-schema bound alone admits NaN and infinities.
         ["--amplitude", "inf"], ["--amplitude", "nan"], ["--switch-prob", "nan"],
         ["--attenuation", "nan"], ["--slot-duration", "inf"]],
        ids=" ".join,
    )
    def test_out_of_bound_settings_are_usage_errors(self, tmp_path, capsys, args):
        # Bounded as the profile and scenario fields they stand for.
        out = tmp_path / "o"
        assert main(["forecast-compare", *args, "--out", str(out)]) == 2
        assert not out.exists()
        assert args[0] in capsys.readouterr().err

    def test_config_period_without_daylight_is_a_usage_error(self, tmp_path, capsys):
        # The schema allows a predictor period of 2, but its synthetic day
        # (half of it daylight) holds no more than one daylight slot.
        config = tmp_path / "scenario.yaml"
        config.write_text(TREE.replace("  period: 24\n", "  period: 2\n"))
        assert parse_scenario(config.read_text()).predictor.period == 2
        out = tmp_path / "o"
        assert main(["forecast-compare", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "predictor.period" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["3", "5"])
    def test_no_scored_daylight_is_a_runtime_error(self, tmp_path, capsys, seed):
        # Fully attenuated cloudy days on every scored day leave no actual
        # above 5% of the peak to take a percentage error against.
        out = tmp_path / "o"
        code = main(["forecast-compare", "--period", "4", "--days", "3", "--attenuation",
                     "0.0", "--switch-prob", "0.5", "--seed", seed, "--out", str(out)])
        assert code == 3
        assert "no scored slot" in capsys.readouterr().err
        assert not out.exists()

    def test_three_days_score_the_third(self, tmp_path):
        out = tmp_path / "o"
        code = main(["forecast-compare", "--period", "3", "--days", "3", "--out", str(out)])
        assert code == 0
        assert len((out / "forecast_compare.csv").read_text().splitlines()) == 1 + 3


class TestRouteCompareCommand:
    def test_summary_orders_modes(self, tree_path, tmp_path):
        out = tmp_path / "rc"
        code = main([
            "route-compare", "--config", tree_path, "--seeds", "2",
            "--slots", "40", "--out", str(out),
        ])
        assert code == 0
        summary = read_json(out / "summary.json")
        assert summary["mean_pdr_modified"] >= summary["mean_pdr_baseline"]
        lines = (out / "pdr.csv").read_text().splitlines()
        assert lines[0] == "seed,mode,pdr,delivered,generated"
        assert len(lines) == 1 + 2 * 2

    @pytest.mark.parametrize(
        "args", [["--seeds", "0"], ["--seeds", "-2"], ["--slots", "0"]], ids=" ".join
    )
    def test_out_of_range_counts_are_usage_errors(self, tree_path, tmp_path, args):
        out = tmp_path / "o"
        code = main(["route-compare", "--config", tree_path, *args, "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestDutyCommand:
    def test_table_rows(self, tmp_path):
        out = tmp_path / "duty"
        assert main(["duty", "--out", str(out)]) == 0
        lines = (out / "duty.csv").read_text().splitlines()
        assert len(lines) == 1 + 6
        table_rows = [line.split(",") for line in lines[1:] if "paper-table" in line]
        sleeps = {float(r[0]): float(r[3]) for r in table_rows}
        assert sleeps == {0.05: 100.0, 0.15: 35.0, 0.25: 20.0}

    def test_zero_cycles_is_a_usage_error(self, tmp_path):
        out = tmp_path / "duty"
        assert main(["duty", "--cycles", "0", "--out", str(out)]) == 2
        assert not out.exists()
