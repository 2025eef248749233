"""The runtime's dependencies: what src/plrds imports is what pyproject.toml
declares, and a noisy run never loads SciPy (a test-only dependency)."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies() -> set:
    """Import names of the pyproject.toml `dependencies`."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
            .replace("-", "_") for dep in project["dependencies"]}


def imported_modules(path: Path) -> set:
    """Top-level names of every module an import statement in path names;
    relative imports count as plrds."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("plrds" if node.level else node.module.split(".")[0])
    return names


def test_runtime_imports_are_declared():
    allowed = set(sys.stdlib_module_names) | {"plrds"} | declared_dependencies()
    sources = sorted((ROOT / "src" / "plrds").glob("*.py"))
    assert sources
    stray = {f"{path.name}: {name}" for path in sources
             for name in imported_modules(path) if name not in allowed}
    assert not stray, sorted(stray)


_NOISY_SIMULATE = """\
[problem]
noise_case = additive
[grid]
n = 33
[stepper]
dt = 0.01
[experiment]
horizon = 1
"""

_PROBE = """\
import sys
import plrds, plrds.cli
code = plrds.cli.main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
print(code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_noisy_simulate_loads_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(_NOISY_SIMULATE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", _PROBE, str(config),
                           str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "out" / "series.csv").is_file()
