import json
from importlib import resources
from pathlib import Path

import pytest

from harvestsim.cli import main
from harvestsim.scenario import parse_scenario

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

    def test_mac_trace_flag(self, tree_path, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", tree_path, "--slots", "5", "--out", str(out),
              "--mac-trace"])
        assert (out / "mac_trace.csv").exists()


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
        [["--period", "0"], ["--period", "1"], ["--days", "0"], ["--days", "2"]],
        ids=" ".join,
    )
    def test_out_of_range_counts_are_usage_errors(self, tmp_path, args):
        out = tmp_path / "o"
        assert main(["forecast-compare", *args, "--out", str(out)]) == 2
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
