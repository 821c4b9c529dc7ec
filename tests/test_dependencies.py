"""The program's runtime dependencies: what ``pyproject.toml`` declares is
what ``src/harvestsim`` imports, and jsonschema (a test dependency) is not
needed to run."""

import ast
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import harvestsim

PACKAGE = Path(harvestsim.__file__).parent
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"

# Distribution of each third-party top-level module the program may import.
DISTRIBUTIONS = {"yaml": "PyYAML", "click": "click"}


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _third_party_imports() -> set[str]:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"__future__", "harvestsim"}


def _normalized(name: str) -> str:
    return name.lower().replace("_", "-").replace(".", "-")


class TestRuntimeDependencies:
    def test_declared_dependencies_are_the_imported_ones(self):
        tomllib = pytest.importorskip("tomllib")
        project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
        declared = set()
        for requirement in project["dependencies"]:
            name = requirement.split(";")[0]
            for mark in "<>=!~[ ":
                name = name.split(mark)[0]
            declared.add(_normalized(name))
        imported = _third_party_imports()
        assert imported <= DISTRIBUTIONS.keys(), f"no distribution known for {imported}"
        assert {_normalized(DISTRIBUTIONS[m]) for m in imported} == declared
        assert "jsonschema" in str(project["optional-dependencies"]["test"])

    def test_run_needs_no_jsonschema(self, tmp_path):
        config = tmp_path / "tree.yaml"
        config.write_text(
            resources.files("harvestsim").joinpath("scenarios/four_node_tree.yaml").read_text()
        )
        out = tmp_path / "out"
        done = _python(
            "import sys; sys.modules['jsonschema'] = None\n"
            "from harvestsim.cli import main\n"
            "argv = ['run', '--config', sys.argv[1], '--slots', '20', '--out', sys.argv[2]]\n"
            "sys.exit(main(argv))",
            str(config), str(out),
        )
        assert done.returncode == 0, done.stderr
        assert (out / "summary.json").exists()

    def test_cli_import_loads_no_jsonschema(self):
        done = _python(
            "import sys, harvestsim.cli\n"
            "print(sorted({'jsonschema', 'referencing', 'rpds'} & set(sys.modules)))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
