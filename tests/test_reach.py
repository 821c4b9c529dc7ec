"""Every function in ``src/harvestsim`` runs on a program path.

The program paths are the five console commands, ``run --mode baseline
--mac-trace``, ``forecast-compare --config``, a run on a CSV harvest trace,
a run of a rejected document, and short runs of the grid48 and the 3x4
Holt-Winters lattice shapes. A fresh interpreter runs them through
``cli.main`` under a tracer that records each function it enters. The tracer
is set before ``harvestsim`` is imported, so calls made at import count.

A function that none of them runs is dead code, unless ``KEPT`` names it
with its reason. To keep one, add ``"module.Qualified.name": "<reason>"``
to ``KEPT``, the reason starting with one of ``REASONS``: an acceptance gate
calls it, the benchmark reads it, or a test substitutes a fake through it.
A property's setter is named ``...name.setter``.

A traced function is matched to its ``def`` by module, first line and name.
``co_qualname`` exists only from Python 3.11, but ``co_firstlineno`` is the
line of a function's first decorator, or of its ``def`` when it has none,
on every supported version.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import harvestsim
from test_simcore import lattice_yaml

PACKAGE = Path(harvestsim.__file__).parent

REASONS = ("gate:", "perfbench:", "test seam:")

# Functions no program path runs, each with the reason it stays.
# tests/test_surface.py reads the top-level names here too.
KEPT = {
    "optimizer.evaluate_curve": "gate: criterion 2 interpolates the trade-off curve with it",
    "optimizer.PolicyLp.n_vars": "gate: criterion 1 bounds the breakpoint count by it",
    "optimizer.TradeoffCurve.v_lo": "gate: criterion 2 reaches it through evaluate_curve",
    "optimizer.TradeoffCurve.v_hi": "gate: criterion 2 reaches it through evaluate_curve",
    "energy.InsufficientEnergy.__str__": "perfbench: its withdraw observer counts refusals "
    "of this class (ROADMAP item 15); the message is formatted only when one is read",
    "app.Backlog.entries": "test seam: the backlog tests read the queue, in queue order, "
    "through it; the program only assigns it",
    "simcore.Rows.__len__": "test seam: the tests count a metrics table's rows, and test "
    "it for truth, through it, as they did the lists; the program only iterates the tables",
    "simcore.SlotReports.__iter__": "gate: criterion 9 reads the slot reports as "
    "app.SlotReport objects; the program writes them from Rows.tuples",
    "simcore.SlotSums.get": "gate: criterion 8 reads each ledger row's paid sum through it",
}

# Runs in a fresh interpreter: argv[1] is a JSON list of [argv, exit code]
# pairs for cli.main, argv[2] the JSON file it writes what it saw to.
DRIVER = r"""
import json
import os
import sys

entered = set()


def trace(frame, event, arg):
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.settrace(trace)
import harvestsim
from harvestsim.cli import main

runs = json.loads(sys.argv[1])
codes = [main(argv) for argv, _ in runs]
sys.settrace(None)
package = os.path.dirname(harvestsim.__file__)
with open(sys.argv[2], "w", encoding="utf-8") as f:
    json.dump({
        "package": package,
        "codes": codes,
        "entered": sorted(
            [os.path.basename(name)[:-3], line, fn]
            for name, line, fn in entered
            if os.path.dirname(name) == package
        ),
    }, f)
"""

TREE = resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()


def _program_paths(tmp: Path) -> list:
    """``[argv, exit code]`` of each program path, its inputs written under ``tmp``."""
    (tmp / "tree.yaml").write_text(TREE)
    tree = str(tmp / "tree.yaml")
    trace = tmp / "trace.csv"
    trace.write_text("slot,power_watts\n" + "".join(f"{i},0.001\n" for i in range(20)))
    direct = "direct:    {kind: synthetic, amplitude_w: 0.008,"
    assert TREE.count(direct) == 1
    csv_doc = tmp / "csv.yaml"
    csv_doc.write_text(TREE.replace(direct, f"direct: {{kind: csv, path: '{trace}',"))
    rejected = tmp / "rejected.yaml"
    rejected.write_text(TREE.replace("\nslots: ", "\nslots: -"))
    grid48 = tmp / "grid48.yaml"
    grid48.write_text(lattice_yaml(rows=6, cols=8, sigma_db=0.0, predictor="ewma", slots=4))
    lattice = tmp / "lattice.yaml"
    lattice.write_text(lattice_yaml(sigma_db=4.0, predictor="hw", slots=60))

    def out(name):
        return ["--out", str(tmp / name)]

    return [
        [["run", "--config", tree, "--slots", "20", *out("run")], 0],
        [["route-compare", "--config", tree, "--seeds", "2", "--slots", "10", *out("rc")], 0],
        [["forecast-compare", *out("fc")], 0],
        [["tradeoff", "--weights", "6,2", "--costs", "30,20", "--duty-energy", "10",
          "--duty-weight", "0.5", "--budget", "40", *out("curve")], 0],
        [["duty", *out("duty")], 0],
        [["run", "--config", tree, "--slots", "20", "--mode", "baseline", "--mac-trace",
          *out("baseline")], 0],
        [["forecast-compare", "--config", tree, *out("fc-config")], 0],
        [["run", "--config", str(csv_doc), "--slots", "20", *out("csv")], 0],
        [["run", "--config", str(rejected), *out("rejected")], 2],
        [["run", "--config", str(grid48), *out("grid48")], 0],
        [["run", "--config", str(lattice), *out("lattice")], 0],
    ]


def _definitions() -> dict:
    """``(module, first line, name)`` of each function in the package -> its
    qualified name, ``module.Class.name``."""
    defs = {}

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                label = f"{scope}.{child.name}"
                accessor = [d.attr for d in child.decorator_list
                            if isinstance(d, ast.Attribute) and d.attr in ("setter", "deleter")]
                defs[(module, first, child.name)] = ".".join([label, *accessor])
                visit(child, module, label)
            elif isinstance(child, ast.ClassDef):
                visit(child, module, f"{scope}.{child.name}")
            else:
                visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, path.stem)
    return defs


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """The program paths, what the traced interpreter saw, and the qualified
    names of the functions it never entered."""
    tmp = tmp_path_factory.mktemp("reach")
    runs = _program_paths(tmp)
    seen = tmp / "seen.json"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                       os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DRIVER, json.dumps(runs), str(seen)],
                          env=env, cwd=tmp, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(seen.read_text(encoding="utf-8"))
    entered = {tuple(key) for key in seen["entered"]}
    unreached = {label for key, label in _definitions().items() if key not in entered}
    return runs, seen, unreached


class TestReach:
    def test_each_program_path_exits_as_expected(self, traced):
        runs, seen, _ = traced
        assert Path(seen["package"]) == PACKAGE
        assert seen["codes"] == [code for _, code in runs]

    def test_every_function_runs_on_a_program_path_or_is_kept(self, traced):
        assert sorted(traced[2] - set(KEPT)) == []

    def test_every_kept_name_is_a_function_no_program_path_runs(self, traced):
        assert sorted(set(KEPT) - traced[2]) == []

    def test_every_kept_name_gives_its_reason(self):
        assert [name for name, why in KEPT.items() if not why.startswith(REASONS)] == []
