"""Import budget: the CLI and the serve handlers load without scipy, and
every third-party package ``src/repro`` imports is a declared dependency.

scipy is only needed by the HOP workload's kd-tree, which imports it on
demand.  Each import check runs in a fresh interpreter so modules
imported by other tests cannot mask a regression.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


_SCIPY_LOADED = "import sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


@pytest.mark.parametrize("module", ["repro.cli", "repro.serve.handlers"])
def test_import_loads_no_scipy(module):
    assert _run(f"import {module}; {_SCIPY_LOADED}") == "[]"


def _third_party_imports() -> "dict[str, set[str]]":
    """Top-level third-party package -> the ``src/repro`` files importing it
    (anywhere in the file, function-local imports included)."""
    found: dict[str, set[str]] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.relative_to(SRC).as_posix())
    return found


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project["dependencies"]
    }
    undeclared = {
        name: sorted(files)
        for name, files in _third_party_imports().items()
        if name.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


def test_only_hop_imports_scipy():
    assert _third_party_imports().get("scipy") == {"repro/workloads/hop.py"}


def test_unknown_core_attribute_still_raises():
    import repro.core

    with pytest.raises(AttributeError, match="no_such_model"):
        repro.core.no_such_model  # noqa: B018


def test_hop_workload_imports_scipy_on_demand():
    out = _run(
        "import sys\n"
        "from repro.workloads.hop import HopWorkload\n"
        "from repro.workloads.datasets import make_particles\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "ds = make_particles(300, n_halos=3, seed=3)\n"
        "assert HopWorkload(ds, n_neighbors=8).execute(2).phases\n"
        "assert 'scipy.spatial' in sys.modules\n"
        "print('ok')"
    )
    assert out == "ok"
